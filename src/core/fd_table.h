// Client-side file-descriptor table.
//
// The interception shim must hand the application integers that look
// like POSIX fds but are serviced by HVAC. Virtual fds start at a
// high base (1<<20) so they can never collide with real descriptors
// the process obtained elsewhere — the shim routes by range. Each
// entry tracks the logical path, the server its reads go to, the
// current offset (for plain read()), and the file size (paper §III-D
// step 7: "the returned file descriptor or stream is used to track
// the read offset and length"). Read fds hold no server-side state:
// reads address the file by path, so close is local.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"

namespace hvac::core {

struct FdEntry {
  std::string logical_path;
  uint32_t server_index = 0;
  uint64_t offset = 0;        // sequential read position
  uint64_t size = 0;          // file size: authoritative (open reply,
                              // meta cache or packed index), so reads
                              // at or past it are EOF without an RPC
  bool fallback_pfs = false;  // true: served by direct PFS fd
  int pfs_fd = -1;            // real fd when fallback_pfs
  bool segmented = false;     // true: stateless segment-granular reads
                              // (see core/segment.h)
  // The whole file, when the open reply carried it inline: reads are
  // served from here with no RPC. Shared because get() copies entries.
  std::shared_ptr<const std::vector<uint8_t>> inline_data;
  bool writable = false;      // true: checkpoint write handle (remote_fd
                              // is a kWriteOpen cookie, or pfs_fd is a
                              // real O_WRONLY fd when fallback_pfs)
  uint64_t remote_fd = 0;     // kWriteOpen cookie (write handles only)
};

class FdTable {
 public:
  static constexpr int kVirtualFdBase = 1 << 20;

  // Registers an entry and returns its virtual fd.
  int insert(FdEntry entry);

  // Looks up a virtual fd (copy-out to avoid holding the lock during
  // I/O).
  Result<FdEntry> get(int vfd) const;

  // Replaces the stored offset after a read/lseek.
  Status set_offset(int vfd, uint64_t offset);

  // Atomically reserves [offset, offset+count) for a plain write():
  // returns the pre-advance offset and bumps the stored offset by
  // `count` in one critical section, so concurrent writers on the
  // same vfd get disjoint ranges (write(2)'s kernel-atomic offset
  // update).
  Result<uint64_t> reserve_offset(int vfd, uint64_t count);

  // Undoes the tail of a reservation after a short or failed write:
  // sets the offset to `actual_end` only while it still equals
  // `reserved_end` (i.e. no later writer has reserved past us).
  Status rewind_offset(int vfd, uint64_t reserved_end,
                       uint64_t actual_end);

  // Swaps the whole entry (fail-over keeps the vfd stable for the
  // application while the backing server changes underneath).
  Status replace(int vfd, FdEntry entry);

  // Removes the entry, returning it (so close can tear down remote
  // state).
  Result<FdEntry> erase(int vfd);

  static bool is_virtual(int fd) { return fd >= kVirtualFdBase; }

  size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<int, FdEntry> entries_;
  int next_fd_ = kVirtualFdBase;
};

}  // namespace hvac::core
