// Node-local cache store: the XFS-on-NVMe directory an HVAC server
// owns. Cached files are stored flat, named by the stable hash of
// their logical (PFS) path — the cache never needs to reproduce the
// dataset's directory tree, and lookup is O(1) with no directory
// walking. Capacity is tracked in bytes so eviction can keep the
// store under the NVMe budget.
//
// A resident entry owns the fd that serves it: the data mover hands
// over the fd it copied the file in with, so a warm read is one map
// lookup and a pread, never an open(). A shuffled epoch reads each
// sample once, so an LRU of C handles over N files would hit only
// C/N; ownership hits on every entry that fits in the fd budget (half
// the soft RLIMIT_NOFILE). Entries past it keep no fd and open one
// per read.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "storage/posix_file.h"

namespace hvac::storage {

class LocalStore {
 public:
  // A read handle on a resident file: shared ownership of its entry's
  // fd (or of a per-read fd when the entry holds none). evict() and
  // purge() drop only the store's reference, so a pinned read keeps
  // its fd until the last pin drops.
  class Pin {
   public:
    explicit Pin(std::shared_ptr<const PosixFile> file)
        : file_(std::move(file)) {}

    const PosixFile& file() const { return *file_; }
    Result<size_t> pread(void* buf, size_t count, uint64_t offset) const {
      return file_->pread(buf, count, offset);
    }
    Result<uint64_t> size() const { return file_->size(); }
    // Keeps the fd open while the returned pointer lives (a queued
    // sendfile extent holds one).
    const std::shared_ptr<const PosixFile>& owner() const { return file_; }

   private:
    std::shared_ptr<const PosixFile> file_;
  };

  // The handle counters the metrics frame reports.
  struct FdStats {
    uint64_t hits = 0;     // open_pinned() served by an entry's own fd
    uint64_t misses = 0;   // open_pinned() that opened per read
    uint64_t open = 0;     // entries holding an fd
    uint64_t pinned = 0;   // of those, entries a reader holds now
    uint64_t deferred_closes = 0;  // entries dropped while pinned
    uint64_t budget = 0;   // fds this store may hold
  };

  // Half the process's soft RLIMIT_NOFILE, read once: the fds all
  // stores in the process may hold together.
  static size_t process_fd_budget();

  // `root` is created if missing. `capacity_bytes` of 0 means
  // unlimited (the paper's common case: datasets fit in aggregate
  // NVMe). `fd_budget` caps the fds held by entries, counted across
  // every store in the process.
  explicit LocalStore(std::string root, uint64_t capacity_bytes = 0,
                      size_t fd_budget = process_fd_budget());
  ~LocalStore();

  LocalStore(const LocalStore&) = delete;
  LocalStore& operator=(const LocalStore&) = delete;

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
  // consuming `reserved` bytes claimed by reserve() (0: none). The
  // entry keeps `file` (the copy's fd; opened read-only here when not
  // given) while the fd budget allows; past it, or on EMFILE/ENFILE,
  // it keeps none. Returns kCapacity when the store is over budget
  // (caller evicts and retries); the claim is then still held.
  Status insert(const std::string& logical_path, uint64_t size_bytes,
                uint64_t reserved = 0, PosixFile file = {});

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

  // Hot-path open: one lookup that pins the entry's fd, so a hit
  // costs one pread instead of an open/pread/close triple. An entry
  // without an fd opens one for this pin. kNotFound when not cached.
  Result<Pin> open_pinned(const std::string& logical_path) const;

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

  FdStats fd_stats() const;

 private:
  struct Entry {
    uint64_t size = 0;
    std::shared_ptr<const PosixFile> file;  // null: open per read
  };
  // Returns `entry`'s fd to the budget; the fd itself closes when its
  // last pin drops. Caller holds mutex_.
  void drop_fd_locked(const Entry& entry);

  std::string root_;
  uint64_t capacity_;
  size_t fd_budget_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  uint64_t reserved_ = 0;  // claims of copies in flight
  size_t fds_held_ = 0;    // entries with an fd
  // Sum of entries_ sizes plus reserved_.
  std::atomic<uint64_t> bytes_used_{0};
  mutable std::atomic<uint64_t> fd_hits_{0};
  mutable std::atomic<uint64_t> fd_misses_{0};
  uint64_t deferred_closes_ = 0;  // guarded by mutex_
};

}  // namespace hvac::storage
