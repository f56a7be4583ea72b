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

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"

namespace hvac::core {

// A read-only fd on one of a home's cache slabs (DESIGN.md §20),
// shared by the client's table of held slabs and every vfd reading
// from it: it closes when the last of them lets go.
struct SlabFd {
  SlabFd(int fd, uint64_t ino, uint64_t size)
      : fd(fd), ino(ino), known_size(size) {}
  ~SlabFd();
  SlabFd(const SlabFd&) = delete;
  SlabFd& operator=(const SlabFd&) = delete;

  const int fd;
  const uint64_t ino;  // the inode the server named
  // The slab's size when last fstat'ed: a filling slab grows, so a
  // slot past it sends the client back to fstat.
  std::atomic<uint64_t> known_size;
};

// A local checkpoint writer's O_WRONLY fd on its home's named file
// (DESIGN.md §21), shared by the copies of its vfd's entry: it closes
// when the last of them lets go.
struct WriteFd {
  explicit WriteFd(int fd) : fd(fd) {}
  ~WriteFd();
  WriteFd(const WriteFd&) = delete;
  WriteFd& operator=(const WriteFd&) = delete;

  const int fd;
  // Bytes pwritten since the last barrier: the next kFsync or
  // kWriteClose reports them, and a barrier with none and no kWrite
  // since costs the server nothing.
  std::atomic<uint64_t> unsynced_bytes{0};
};

struct FdEntry {
  std::string logical_path;
  uint32_t server_index = 0;
  uint64_t offset = 0;        // sequential read position
  uint64_t size = 0;          // file size: authoritative (open reply
                              // or packed index), so reads at or past
                              // it are EOF without an RPC
  bool fallback_pfs = false;  // true: served by direct PFS fd
  int pfs_fd = -1;            // real fd when fallback_pfs
  // Slab read (DESIGN.md §20): the home's cache slab holding the file,
  // its bytes at base + offset. Reads are one pread, no RPC.
  std::shared_ptr<SlabFd> slab;
  // Packed sample: the container blob holding it (its placement key,
  // and the file a PFS fallback opens) and the sample's byte offset
  // inside it; for a slab read, the slot's offset in the slab. Empty /
  // 0 for a plain file.
  std::string container_logical;
  uint64_t base = 0;
  bool segmented = false;     // true: stateless segment-granular reads
                              // (see core/segment.h)
  // The whole file, once the open reply carried it inline or the first
  // read fetched it: reads are served from here with no RPC. Shared
  // because get() copies entries.
  std::shared_ptr<const std::vector<uint8_t>> inline_data;
  bool writable = false;      // true: checkpoint write handle (remote_fd
                              // is a kWriteOpen cookie, or pfs_fd is a
                              // real O_WRONLY fd when fallback_pfs)
  uint64_t remote_fd = 0;     // kWriteOpen cookie (write handles only)
  // Local write-back handle: writes are pwrites into the named file,
  // with no RPC; null for kWrite handles.
  std::shared_ptr<WriteFd> write_fd;
};

class FdTable {
 public:
  static constexpr int kVirtualFdBase = 1 << 20;

  // Registers an entry and returns its virtual fd.
  int insert(FdEntry entry);

  // Looks up a virtual fd (copy-out to avoid holding the lock during
  // I/O).
  Result<FdEntry> get(int vfd) const;

  // Replaces the stored offset after an lseek.
  Status set_offset(int vfd, uint64_t offset);

  struct Range {
    uint64_t offset = 0;
    uint64_t length = 0;
  };

  // Atomically reserves the next `count` bytes for a plain read(),
  // clamped to the entry's size: returns the range and advances the
  // stored offset past it in one critical section, so concurrent
  // readers of one vfd get disjoint ranges (read(2)'s kernel-atomic
  // offset update). A short read gives its tail back with
  // rewind_offset.
  Result<Range> reserve_read(int vfd, uint64_t count);

  // Atomically reserves [offset, offset+count) for a plain write():
  // returns the pre-advance offset and bumps the stored offset by
  // `count` in one critical section, so concurrent writers on the
  // same vfd get disjoint ranges (write(2)'s kernel-atomic offset
  // update).
  Result<uint64_t> reserve_offset(int vfd, uint64_t count);

  // Undoes the tail of a reservation after a short or failed I/O:
  // sets the offset to `actual_end` only while it still equals
  // `reserved_end` (i.e. no later writer has reserved past us).
  Status rewind_offset(int vfd, uint64_t reserved_end,
                       uint64_t actual_end);

  // Attaches the whole file's bytes to a live entry, so its later reads
  // are local copies. A no-op when the vfd is gone.
  void attach_inline(int vfd,
                     std::shared_ptr<const std::vector<uint8_t>> data);

  // Swaps the entry's backing but keeps its stored offset (fail-over
  // keeps the vfd and its position stable for the application while
  // the backing server changes underneath, even with reads in flight
  // on other threads).
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
