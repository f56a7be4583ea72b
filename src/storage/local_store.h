// Node-local cache store: the XFS-on-NVMe directory an HVAC server
// owns. It holds two kinds of file:
//
//  * Slabs. Every data-mover copy (a whole file, a file segment or a
//    packed container) is appended into a 4 KiB-aligned slot of a
//    slab file: 64 MiB, or capacity/16 for a store with a capacity,
//    and a copy larger than that gets a slab of its own. A fetch is a
//    copy_file_range at an offset into a file the store already holds
//    open, not a create, and its eviction is not an unlink: on a
//    small-file epoch that create was most of the mover's CPU
//    (DESIGN.md §18). An entry is {slab, base, size}.
//  * Named files, named by the stable hash of their logical (PFS)
//    path: the write-back copies checkpoint writes grow in place, the
//    flusher copies out and journal replay rebuilds.
//
// A written slot is never rewritten or hole-punched: a queued
// sendfile reply may still reference its page-cache pages after
// its pin drops. Space comes back a slab at a time, when a slab's last
// entry goes (evict_slab() drops all of them at once); until then the
// slab's bytes count in bytes_used(), but for the slots of entries a
// write open moved to named files, which count as those files' bytes.
// A dropped slab is unlinked when
// its last pin lets go, and a new store deletes the slabs a killed
// process left in its root.
//
// Each slab owns the fd that serves it, within the fd budget (half the
// soft RLIMIT_NOFILE, counted in slabs across every store in the
// process): a warm read is one map lookup and a pread, never an
// open(). Slabs past the budget, and named files, open one fd per read.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "storage/posix_file.h"

namespace hvac::storage {

class LocalStore {
  struct Handle;
  struct Slab;

 public:
  // A read handle on a resident entry: shared ownership of the fd that
  // serves it (its slab's, or one opened for this pin). evict() and
  // purge() drop only the store's reference, so a pinned read keeps
  // its fd, and the slab its name, until the last pin drops.
  class Pin {
   public:
    // The backing file; the entry's bytes sit at [base(), base() +
    // size()) of it.
    const PosixFile& file() const;
    uint64_t base() const { return base_; }
    uint64_t size() const { return size_; }
    // Reads at `offset` into the entry, clamped to its size, so a read
    // never bleeds into the neighbouring slot.
    Result<size_t> pread(void* buf, size_t count, uint64_t offset) const;
    // Keeps the fd open while the returned pointer lives (a queued
    // sendfile extent holds one).
    std::shared_ptr<const void> owner() const { return handle_; }
    // Inode number of the slab the entry sits in, recorded when the
    // slab was created; 0 for a named (write-back) entry.
    uint64_t slab_ino() const;
    // A fresh read-only open of the slab the entry sits in, for a
    // caller that keeps its own fd (a passed-fd kOpen); an invalid file
    // for a named (write-back) entry, which writes grow in place. The
    // pin keeps the slab linked, so the open cannot miss it.
    Result<PosixFile> open_slab_read() const;

   private:
    friend class LocalStore;
    Pin(std::shared_ptr<const Handle> handle, uint64_t base, uint64_t size)
        : handle_(std::move(handle)), base_(base), size_(size) {}

    std::shared_ptr<const Handle> handle_;
    uint64_t base_ = 0;
    uint64_t size_ = 0;
  };

  // A slab range claimed for a copy in flight: the copy lands at
  // [base(), base() + length()) of file(), then insert() makes it an
  // entry or abandon() gives it up.
  class Slot {
   public:
    PosixFile& file() const;
    uint64_t base() const { return base_; }
    uint64_t length() const { return length_; }

   private:
    friend class LocalStore;
    std::shared_ptr<Slab> slab_;
    std::shared_ptr<Handle> handle_;
    uint64_t base_ = 0;
    uint64_t length_ = 0;
  };

  // A fresh fd on an entry's backing file, for a caller that keeps its
  // own handle (the legacy stateful kOpen).
  struct Opened {
    PosixFile file;
    uint64_t base = 0;
    uint64_t size = 0;
  };

  // The handle counters the metrics frame reports.
  struct FdStats {
    uint64_t hits = 0;     // open_pinned() served by a slab's own fd
    uint64_t misses = 0;   // open_pinned() that opened per read
    uint64_t open = 0;     // slabs holding an fd
    uint64_t pinned = 0;   // of those, slabs a reader holds now
    uint64_t deferred_closes = 0;  // slabs dropped while pinned
    uint64_t budget = 0;   // fds this store may hold
  };

  // Slab size of a store without a capacity.
  static constexpr uint64_t kSlabBytes = 64u << 20;
  // Slot alignment inside a slab.
  static constexpr uint64_t kSlotAlign = 4096;

  // Half the process's soft RLIMIT_NOFILE, read once: the fds all
  // stores in the process may hold together.
  static size_t process_fd_budget();

  // `root` is created if missing, and slabs left in it by a killed
  // process are deleted (named files and journals stay).
  // `capacity_bytes` of 0 means unlimited (the paper's common case:
  // datasets fit in aggregate NVMe). `fd_budget` caps the fds held by
  // slabs, counted across every store in the process.
  explicit LocalStore(std::string root, uint64_t capacity_bytes = 0,
                      size_t fd_budget = process_fd_budget());
  ~LocalStore();

  LocalStore(const LocalStore&) = delete;
  LocalStore& operator=(const LocalStore&) = delete;

  // Path of `logical_path`'s named (write-back) file.
  std::string physical_path(const std::string& logical_path) const;

  bool contains(const std::string& logical_path) const;

  // Capacity claim for a copy in flight: reserve() takes `bytes` of
  // the budget (kCapacity when they do not fit), claim() turns them
  // into a slot, and insert() or abandon() settles it; release() hands
  // back a claim that never got a slot. Reserved bytes count in
  // bytes_used(), so concurrent copies never overcommit the budget.
  Status reserve(uint64_t bytes);
  void release(uint64_t bytes);
  // Claims not yet settled, slots in flight included.
  uint64_t reserved_bytes() const;

  // A slot of `bytes` for reserve()d bytes: the next aligned offset of
  // the slab being filled, or offset 0 of a new slab once it is full
  // (created here, outside the lock; the only create on the fetch
  // path). Alignment padding counts in bytes_used(); a slab is sealed
  // rather than padded past the capacity.
  Result<Slot> claim(uint64_t bytes);

  // Registers the copy in `slot` as `logical_path`, `size` bytes
  // (clamped to the slot: a short copy), settling the slot's claim.
  // Idempotent: a path already cached keeps its entry, and the slot
  // stays dead space in its slab.
  void insert(const std::string& logical_path, Slot slot, uint64_t size);
  // Settles a slot whose copy failed; its bytes stay in the slab.
  void abandon(Slot slot);

  // Opens a fresh fd on a cached entry.
  Result<Opened> open(const std::string& logical_path) const;

  // Size of a cached entry: slabs from the entry, named files from a
  // stat (a write-back entry's size can run ahead of its bytes).
  Result<uint64_t> cached_size(const std::string& logical_path) const;

  // Fills the named file of a path the store does not hold, for a
  // non-truncating write open: copies the path's bytes into `out` from
  // offset 0 and returns how many, having reserve()d exactly that many.
  // kNotFound when the path exists nowhere (the write starts empty).
  using Fill = std::function<Result<uint64_t>(PosixFile& out)>;

  // Write path: opens the named file for read/write, creating it if
  // absent. Write opens of one path run one at a time, so no open's
  // copy into the named file interleaves with another's truncation.
  //  * `keep_contents` false (a truncating open): the file is emptied
  //    and the entry re-pointed to it at once, so a later open never
  //    copies stale slab bytes over this writer's.
  //  * A path held in a slab is copied into its named file and its
  //    entry re-pointed there; the slot's bytes move to the entry, so
  //    the copy needs no new capacity.
  //  * A path the store does not hold is filled by `fill` when given
  //    (kCapacity when it does not fit); otherwise it is not
  //    registered, and callers account the bytes with update_size()
  //    once they land.
  // Fault site: store_write.
  Result<PosixFile> open_write(const std::string& logical_path,
                               bool keep_contents = true,
                               const Fill& fill = nullptr);

  // Records that `logical_path`'s named file now occupies `new_size`
  // bytes (a checkpoint write extended or truncated it), inserting the
  // entry if new and re-pointing a slab entry. kCapacity when the
  // growth would blow the NVMe budget — the write path sheds to
  // write-through PFS mode on that.
  Status update_size(const std::string& logical_path, uint64_t new_size);

  // Hot-path open: one lookup that pins the entry's slab fd, so a hit
  // costs one pread instead of an open/pread/close triple. Named files
  // and slabs past the fd budget open one for this pin; a named file's
  // pin is sized from that fd, since a write records its size before
  // its bytes land. kNotFound when not cached.
  Result<Pin> open_pinned(const std::string& logical_path) const;

  // Removes one cached entry; returns its size, or kNotFound. A slab
  // entry's bytes come back when its slab's last entry goes.
  Result<uint64_t> evict(const std::string& logical_path);

  // Removes `logical_path` and every entry sharing its slab, and
  // returns them (just `logical_path` for a named file; empty when not
  // cached). The slab's bytes come back at once unless copies into it
  // are still in flight.
  std::vector<std::string> evict_slab(const std::string& logical_path);

  // Removes everything (job teardown: "cache lifetime == job
  // lifetime", paper §III-D).
  void purge();

  // Deletes every named file in the root but those of the logical
  // paths in `keep`: at a restart, a file the journal does not list as
  // dirty is clean (already on the PFS) or holds no acked byte.
  void remove_named_files_except(const std::vector<std::string>& keep);

  uint64_t bytes_used() const {
    return bytes_used_.load(std::memory_order_relaxed);
  }
  uint64_t capacity_bytes() const { return capacity_; }
  // Bytes of a slab being filled: kSlabBytes, or capacity/16.
  uint64_t slab_bytes() const { return slab_bytes_; }
  size_t entry_count() const;

  // Snapshot of cached logical paths (eviction policies sample this).
  std::vector<std::string> logical_paths() const;

  const std::string& root() const { return root_; }

  FdStats fd_stats() const;

 private:
  struct Entry {
    uint64_t size = 0;
    uint64_t base = 0;
    std::shared_ptr<Slab> slab;  // null: a named file
  };
  using Dropped = std::vector<std::shared_ptr<Slab>>;

  // Creates a slab file of at most `limit` bytes.
  Result<std::shared_ptr<Slab>> new_slab(uint64_t limit);
  // Detaches `entry` from its slab (caller erases or re-points it),
  // dropping the slab once nothing lives in it. Caller holds mutex_.
  void detach_locked(const Entry& entry, Dropped* dropped);
  // Drops `slab` when it holds no entry and no copy in flight. Caller
  // holds mutex_.
  void drop_if_idle_locked(const std::shared_ptr<Slab>& slab,
                           Dropped* dropped);
  // Stops claims into `slab` if it is being filled. Caller holds
  // mutex_.
  void seal_locked(const std::shared_ptr<Slab>& slab);
  // Forgets `slab` and its bytes; the file goes with the last pin.
  // Caller holds mutex_ and destroys `dropped` after unlocking.
  void drop_locked(const std::shared_ptr<Slab>& slab, Dropped* dropped);
  // Settles `slot`'s claim. Caller holds mutex_.
  void settle_locked(const Slot& slot, Dropped* dropped);
  // Sets `logical_path`'s entry to a named file of `new_size` bytes,
  // re-pointing a slab entry. Caller holds mutex_.
  Status update_size_locked(const std::string& logical_path,
                            uint64_t new_size, Dropped* dropped);

  std::string root_;
  uint64_t capacity_;
  uint64_t slab_bytes_;
  size_t fd_budget_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::unordered_set<std::shared_ptr<Slab>> slabs_;
  // The slab claim() appends to; null once sealed.
  std::shared_ptr<Slab> filling_;
  uint64_t reserved_ = 0;  // claims of copies in flight
  size_t fds_held_ = 0;    // slabs with a budgeted fd
  // Sum of slab bytes, named entry sizes and reserved_.
  std::atomic<uint64_t> bytes_used_{0};
  mutable std::atomic<uint64_t> fd_hits_{0};
  mutable std::atomic<uint64_t> fd_misses_{0};
  uint64_t deferred_closes_ = 0;  // guarded by mutex_
  // Serialize open_write() per path (striped by its hash), held across
  // its copies into the named file.
  std::array<std::mutex, 16> write_open_mutexes_;
};

}  // namespace hvac::storage
