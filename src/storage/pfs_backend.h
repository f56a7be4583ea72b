// Functional stand-in for the parallel file system (GPFS "Alpine").
//
// A PfsBackend wraps a real directory and charges every operation the
// cost profile of a congested PFS: a metadata latency per open/stat
// (the MDS round trip + lock/token acquisition the paper's §II-C
// describes) and a shared token-bucket bandwidth for data. With both
// set to zero it degrades to a plain directory — which is exactly the
// XFS-on-NVMe baseline.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "storage/posix_file.h"
#include "storage/throttle.h"

namespace hvac::storage {

struct PfsOptions {
  // Per-open metadata latency (microseconds). GPFS-profile defaults
  // are supplied by `gpfs_like_options()`.
  uint64_t metadata_latency_us = 0;
  uint64_t metadata_jitter_us = 0;
  // Aggregate data bandwidth shared by all readers; 0 = unthrottled.
  double bandwidth_bytes_per_sec = 0.0;
  double burst_bytes = 8.0 * (1u << 20);
  uint64_t seed = 42;
};

// A profile that makes a local directory feel like a busy GPFS from a
// single node's perspective (used by examples and functional tests;
// the scale experiments use hvac::sim instead).
PfsOptions gpfs_like_options();

class PfsBackend {
 public:
  explicit PfsBackend(std::string root, PfsOptions options = {});

  // Opens `relative_path` under the PFS root, paying metadata latency.
  // Fault site: pfs_read. A cold fetch is this one open, an fstat on
  // the fd and copy_out from it: one metadata op, one fault draw.
  Result<PosixFile> open(const std::string& relative_path);

  // Reads the whole file, paying metadata + bandwidth costs.
  Result<std::vector<uint8_t>> read_all(const std::string& relative_path);

  // Positional read of an already-open file, paying bandwidth cost.
  Result<size_t> pread(PosixFile& file, void* buf, size_t count,
                       uint64_t offset);

  // stat() with metadata cost.
  Result<uint64_t> size_of(const std::string& relative_path);

  // Copies [offset, offset+length) of an already-open PFS file into
  // `dst` (a file outside the PFS) at `dst_offset`, charging the
  // bandwidth for every byte copied: open() already paid the metadata
  // op. The copy runs in the kernel (storage::copy_range). Returns
  // bytes copied, clamped at EOF. This is the data-mover's fs::copy(src, dst) step from the
  // paper's I/O flow (§III-D, step 6); a range is the fetch behind
  // segment-level caching (§III-E, HFetch-style).
  Result<uint64_t> copy_out(PosixFile& src, PosixFile& dst,
                            uint64_t offset = 0,
                            uint64_t length = UINT64_MAX,
                            uint64_t dst_offset = 0);

  // open() + copy_out() of the whole file to `dst`, an absolute path
  // that is created or truncated.
  Result<uint64_t> copy_out(const std::string& relative_path,
                            const std::string& dst);

  // Opens `relative_path` for writing (creating parents and the file,
  // truncating if asked), paying metadata latency — the write-through
  // path used when the local store is out of space. Fault site:
  // pfs_write.
  Result<PosixFile> open_write(const std::string& relative_path, bool trunc);

  // Positional write to an already-open PFS file, paying bandwidth
  // cost. Fault site: pfs_write.
  Result<size_t> pwrite(PosixFile& file, const void* buf, size_t count,
                        uint64_t offset);

  // Copies a local file (absolute `src` outside the PFS) into the PFS
  // at `relative_path`, paying metadata + bandwidth costs and syncing
  // the destination — the flusher's write-back step, the inverse of
  // copy_out. Writes land in a `.hvacflush` sibling first and rename
  // into place, so a crashed flush never leaves a half-written
  // checkpoint visible under the final name. Fault site: pfs_write.
  Result<uint64_t> copy_in(const std::string& src,
                           const std::string& relative_path);

  bool exists(const std::string& relative_path) const;

  const std::string& root() const { return root_; }
  std::string absolute(const std::string& relative_path) const;

  // Cumulative counters for tests/benches.
  uint64_t metadata_ops() const { return metadata_ops_; }
  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  void charge_metadata();
  void charge_bandwidth(uint64_t bytes);

  std::string root_;
  PfsOptions options_;
  LatencyInjector latency_;
  TokenBucket bandwidth_;
  std::atomic<uint64_t> metadata_ops_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
};

}  // namespace hvac::storage
