// Node-local cache store: the XFS-on-NVMe directory an HVAC server
// owns. Cached files are stored flat, named by the stable hash of
// their logical (PFS) path — the cache never needs to reproduce the
// dataset's directory tree, and lookup is O(1) with no directory
// walking. Capacity is tracked in bytes so eviction can keep the
// store under the NVMe budget.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "storage/open_handle_cache.h"
#include "storage/posix_file.h"

namespace hvac::storage {

class LocalStore {
 public:
  // Sentinel: size the open-handle cache from HVAC_HANDLE_CACHE
  // (default 128 handles; 0 disables it — the seed's
  // open-per-read behaviour).
  static constexpr size_t kHandleCacheFromEnv = static_cast<size_t>(-1);

  // `root` is created if missing. `capacity_bytes` of 0 means
  // unlimited (the paper's common case: datasets fit in aggregate
  // NVMe).
  LocalStore(std::string root, uint64_t capacity_bytes = 0,
             size_t handle_cache_slots = kHandleCacheFromEnv);

  // Physical path a logical path would be cached at.
  std::string physical_path(const std::string& logical_path) const;

  bool contains(const std::string& logical_path) const;

  // Capacity claim for a copy in flight: reserve() takes `bytes` of
  // the budget before the copy lands at physical_path() (kCapacity when
  // they do not fit), insert() turns the claim into an entry, release()
  // hands it back after a failed copy. Reserved bytes count in
  // bytes_used(), so concurrent copies never overcommit the budget.
  Status reserve(uint64_t bytes);
  void release(uint64_t bytes);
  uint64_t reserved_bytes() const;

  // Registers a file that was just copied in via physical_path(),
  // consuming `reserved` bytes claimed by reserve() (0: none). Returns
  // kCapacity when the store is over budget (caller evicts and
  // retries); the claim is then still held.
  Status insert(const std::string& logical_path, uint64_t size_bytes,
                uint64_t reserved = 0);

  // Opens a cached file for reading.
  Result<PosixFile> open(const std::string& logical_path) const;

  // Write path: opens (creating if absent, never truncating) the
  // backing file for read/write. Does not register the entry —
  // callers account the bytes with update_size() once they land.
  // Fault site: store_write.
  Result<PosixFile> open_write(const std::string& logical_path) const;

  // Records that `logical_path` now occupies `new_size` bytes (a
  // checkpoint write extended or truncated it), inserting the entry
  // if new. kCapacity when the growth would blow the NVMe budget —
  // the write path sheds to write-through PFS mode on that.
  Status update_size(const std::string& logical_path, uint64_t new_size);

  // Hot-path open: reads through the pinned open-handle cache, so the
  // steady-state hit path costs one pread instead of an
  // open/pread/close triple. The pin keeps the handle alive across a
  // concurrent evict().
  Result<OpenHandleCache::Pin> open_pinned(
      const std::string& logical_path) const;

  // Removes one cached entry; returns its size, or kNotFound.
  Result<uint64_t> evict(const std::string& logical_path);

  // Removes everything (job teardown: "cache lifetime == job
  // lifetime", paper §III-D).
  void purge();

  uint64_t bytes_used() const {
    return bytes_used_.load(std::memory_order_relaxed);
  }
  uint64_t capacity_bytes() const { return capacity_; }
  size_t entry_count() const;

  // Snapshot of cached logical paths (eviction policies sample this).
  std::vector<std::string> logical_paths() const;

  const std::string& root() const { return root_; }

  OpenHandleCache& handle_cache() const { return *handles_; }

 private:
  std::string root_;
  uint64_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, uint64_t> entries_;  // logical -> size
  uint64_t reserved_ = 0;  // claims of copies in flight
  // Sum of entries_ sizes plus reserved_.
  std::atomic<uint64_t> bytes_used_{0};
  // Mutable: reads are logically const but touch the LRU/pin state.
  mutable std::unique_ptr<OpenHandleCache> handles_;
};

}  // namespace hvac::storage
