#include "storage/local_store.h"

#include <dirent.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/env.h"
#include "common/fault_injection.h"
#include "common/hash.h"

namespace hvac::storage {

namespace {

constexpr char kSlabSuffix[] = ".slab";
constexpr char kNamedSuffix[] = ".hvac";

// fds held by slabs of every store in the process.
std::atomic<size_t> g_fds_held{0};
// Slab names are unique in the process, so a slab unlinked late (with
// its last pin) never takes a newer store's slab with it.
std::atomic<uint64_t> g_slab_seq{0};

bool claim_fd(size_t budget) {
  if (g_fds_held.fetch_add(1, std::memory_order_relaxed) < budget) {
    return true;
  }
  g_fds_held.fetch_sub(1, std::memory_order_relaxed);
  return false;
}

void release_fds(size_t n) {
  g_fds_held.fetch_sub(n, std::memory_order_relaxed);
}

bool has_suffix(const char* name, const char* suffix) {
  const size_t n = std::strlen(name);
  const size_t s = std::strlen(suffix);
  return n > s && std::strcmp(name + n - s, suffix) == 0;
}

uint64_t align_up(uint64_t v) {
  return (v + LocalStore::kSlotAlign - 1) & ~(LocalStore::kSlotAlign - 1);
}

}  // namespace

struct LocalStore::Handle {
  PosixFile file;
  std::shared_ptr<const std::string> slab_name;  // null: a named file
  uint64_t slab_ino = 0;                         // 0: a named file
};

struct LocalStore::Slab {
  // The slab's path; its deleter unlinks the file, so the slab stays
  // linked while the store or any handle on it holds a reference.
  std::shared_ptr<const std::string> name;
  uint64_t ino = 0;  // the slab file's inode number, read at create
  // The read-write fd: kept for reads when `budgeted`, otherwise only
  // while claims append to it.
  std::shared_ptr<Handle> handle;
  bool budgeted = false;
  uint64_t limit = 0;
  uint64_t length = 0;   // end of the last slot, padding included
  // Bytes of slots whose entries moved to named files: they count as
  // those entries' bytes, not the slab's.
  uint64_t moved = 0;
  size_t entries = 0;    // live entries
  size_t inflight = 0;   // claimed slots not yet settled
  // Every path inserted here; evict_slab() skips those that moved.
  std::vector<std::string> keys;
};

const PosixFile& LocalStore::Pin::file() const { return handle_->file; }

Result<size_t> LocalStore::Pin::pread(void* buf, size_t count,
                                      uint64_t offset) const {
  if (offset >= size_) return size_t{0};
  const size_t n = static_cast<size_t>(
      std::min<uint64_t>(count, size_ - offset));
  return handle_->file.pread(buf, n, base_ + offset);
}

uint64_t LocalStore::Pin::slab_ino() const { return handle_->slab_ino; }

Result<PosixFile> LocalStore::Pin::open_slab_read() const {
  if (!handle_->slab_name) return PosixFile();
  return PosixFile::open_read(*handle_->slab_name);
}

PosixFile& LocalStore::Slot::file() const { return handle_->file; }

size_t LocalStore::process_fd_budget() {
  static const size_t budget = [] {
    rlimit limit{};
    if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return size_t{0};
    return static_cast<size_t>(limit.rlim_cur / 2);
  }();
  return budget;
}

LocalStore::LocalStore(std::string root, uint64_t capacity_bytes,
                       size_t fd_budget)
    : root_(std::move(root)),
      capacity_(capacity_bytes),
      slab_bytes_(capacity_bytes == 0
                      ? kSlabBytes
                      : std::clamp<uint64_t>(capacity_bytes / 16, 1,
                                             kSlabBytes)),
      fd_budget_(fd_budget) {
  (void)make_directories(root_);
  // A killed process's slabs are cache, never state: nothing refers to
  // them once it is gone.
  if (DIR* dir = ::opendir(root_.c_str())) {
    while (const dirent* e = ::readdir(dir)) {
      if (has_suffix(e->d_name, kSlabSuffix)) {
        (void)remove_file(path_join(root_, e->d_name));
      }
    }
    ::closedir(dir);
  }
}

LocalStore::~LocalStore() { release_fds(fds_held_); }

std::string LocalStore::physical_path(
    const std::string& logical_path) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%016" PRIx64,
                stable_hash(logical_path));
  return path_join(root_, std::string(name) + kNamedSuffix);
}

bool LocalStore::contains(const std::string& logical_path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.count(logical_path) > 0;
}

Status LocalStore::reserve(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (capacity_ != 0 &&
      bytes_used_.load(std::memory_order_relaxed) + bytes > capacity_) {
    return Error(ErrorCode::kCapacity, "local store full");
  }
  reserved_ += bytes;
  bytes_used_.fetch_add(bytes, std::memory_order_relaxed);
  return Status::Ok();
}

void LocalStore::release(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  reserved_ -= bytes;
  bytes_used_.fetch_sub(bytes, std::memory_order_relaxed);
}

uint64_t LocalStore::reserved_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reserved_;
}

Result<std::shared_ptr<LocalStore::Slab>> LocalStore::new_slab(
    uint64_t limit) {
  char name[48];
  std::snprintf(name, sizeof(name), "%d-%" PRIu64 "%s",
                static_cast<int>(::getpid()),
                g_slab_seq.fetch_add(1, std::memory_order_relaxed),
                kSlabSuffix);
  const std::string path = path_join(root_, name);
  HVAC_ASSIGN_OR_RETURN(PosixFile file, PosixFile::create_write(path));
  struct stat st{};
  if (::fstat(file.fd(), &st) != 0) {
    const Error e = Error::from_errno(errno, "fstat " + path);
    (void)remove_file(path);
    return e;
  }
  auto slab = std::make_shared<Slab>();
  slab->ino = static_cast<uint64_t>(st.st_ino);
  slab->name = std::shared_ptr<const std::string>(
      new std::string(path), [](const std::string* p) {
        (void)remove_file(*p);
        delete p;
      });
  slab->handle =
      std::make_shared<Handle>(Handle{std::move(file), slab->name, slab->ino});
  slab->limit = limit;
  slab->budgeted = claim_fd(fd_budget_);
  return slab;
}

Result<LocalStore::Slot> LocalStore::claim(uint64_t bytes) {
  Slot slot;
  slot.length_ = bytes;
  if (bytes <= slab_bytes_) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (filling_) {
      Slab& s = *filling_;
      const uint64_t base = align_up(s.length);
      const uint64_t pad = base - s.length;
      if (base + bytes <= s.limit &&
          (capacity_ == 0 ||
           bytes_used_.load(std::memory_order_relaxed) + pad <= capacity_)) {
        s.length = base + bytes;
        ++s.inflight;
        bytes_used_.fetch_add(pad, std::memory_order_relaxed);
        slot.slab_ = filling_;
        slot.handle_ = s.handle;
        slot.base_ = base;
        return slot;
      }
      seal_locked(filling_);
    }
  }
  HVAC_ASSIGN_OR_RETURN(std::shared_ptr<Slab> slab,
                        new_slab(std::max(bytes, slab_bytes_)));
  std::lock_guard<std::mutex> lock(mutex_);
  slab->length = bytes;
  slab->inflight = 1;
  slabs_.insert(slab);
  if (slab->budgeted) ++fds_held_;
  slot.slab_ = slab;
  slot.handle_ = slab->handle;
  if (bytes <= slab_bytes_) {
    // A claim that raced this one to a new slab loses its filling
    // slab's tail.
    if (filling_) seal_locked(filling_);
    filling_ = slab;
  } else if (!slab->budgeted) {
    slab->handle.reset();  // a slab of its own takes no more claims
  }
  return slot;
}

void LocalStore::settle_locked(const Slot& slot, Dropped* dropped) {
  reserved_ -= slot.length_;  // the bytes stay in bytes_used_, as slab bytes
  --slot.slab_->inflight;
  drop_if_idle_locked(slot.slab_, dropped);
}

void LocalStore::insert(const std::string& logical_path, Slot slot,
                        uint64_t size) {
  Dropped dropped;
  std::lock_guard<std::mutex> lock(mutex_);
  // A path already cached keeps its entry (idempotent insert).
  auto [it, fresh] = entries_.try_emplace(logical_path);
  if (fresh) {
    it->second = Entry{std::min(size, slot.length_), slot.base_, slot.slab_};
    ++slot.slab_->entries;
    slot.slab_->keys.push_back(logical_path);
  }
  settle_locked(slot, &dropped);
}

void LocalStore::abandon(Slot slot) {
  Dropped dropped;
  std::lock_guard<std::mutex> lock(mutex_);
  settle_locked(slot, &dropped);
}

void LocalStore::seal_locked(const std::shared_ptr<Slab>& slab) {
  if (filling_ != slab) return;
  if (!slab->budgeted) slab->handle.reset();
  filling_.reset();
}

void LocalStore::detach_locked(const Entry& entry, Dropped* dropped) {
  --entry.slab->entries;
  drop_if_idle_locked(entry.slab, dropped);
}

void LocalStore::drop_if_idle_locked(const std::shared_ptr<Slab>& slab,
                                     Dropped* dropped) {
  if (slab->entries == 0 && slab->inflight == 0) drop_locked(slab, dropped);
}

void LocalStore::drop_locked(const std::shared_ptr<Slab>& slab,
                             Dropped* dropped) {
  if (slabs_.erase(slab) == 0) return;
  bytes_used_.fetch_sub(slab->length - slab->moved,
                        std::memory_order_relaxed);
  if (slab->budgeted) {
    --fds_held_;
    release_fds(1);
    if (slab->handle.use_count() > 1) ++deferred_closes_;
  }
  seal_locked(slab);
  dropped->push_back(slab);
}

Result<LocalStore::Opened> LocalStore::open(
    const std::string& logical_path) const {
  HVAC_RETURN_IF_ERROR(fault::check(fault::Site::kStoreRead));
  Opened opened;
  std::shared_ptr<const std::string> slab_name;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(logical_path);
    if (it == entries_.end()) {
      return Error(ErrorCode::kNotFound, "not cached: " + logical_path);
    }
    opened.base = it->second.base;
    opened.size = it->second.size;
    if (it->second.slab) slab_name = it->second.slab->name;
  }
  if (slab_name) {
    HVAC_ASSIGN_OR_RETURN(opened.file, PosixFile::open_read(*slab_name));
  } else {
    HVAC_ASSIGN_OR_RETURN(opened.file,
                          PosixFile::open_read(physical_path(logical_path)));
    HVAC_ASSIGN_OR_RETURN(opened.size, opened.file.size());
  }
  return opened;
}

Result<uint64_t> LocalStore::cached_size(
    const std::string& logical_path) const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(logical_path);
    if (it == entries_.end()) {
      return Error(ErrorCode::kNotFound, "not cached: " + logical_path);
    }
    if (it->second.slab) return it->second.size;
  }
  return file_size(physical_path(logical_path));
}

Result<PosixFile> LocalStore::open_write(const std::string& logical_path,
                                         bool keep_contents,
                                         const Fill& fill) {
  HVAC_RETURN_IF_ERROR(fault::check(fault::Site::kStoreWrite));
  const std::string path = physical_path(logical_path);
  std::lock_guard<std::mutex> serial(
      write_open_mutexes_[stable_hash(logical_path) %
                          write_open_mutexes_.size()]);
  Dropped dropped;
  if (!keep_contents) {
    HVAC_ASSIGN_OR_RETURN(PosixFile out, PosixFile::open_rw(path));
    HVAC_RETURN_IF_ERROR(out.truncate(0));
    std::lock_guard<std::mutex> lock(mutex_);
    HVAC_RETURN_IF_ERROR(update_size_locked(logical_path, 0, &dropped));
    return out;
  }
  bool held = false;
  Entry entry;
  std::shared_ptr<Handle> handle;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(logical_path);
    if (it != entries_.end()) {
      held = true;
      entry = it->second;
      if (entry.slab) handle = entry.slab->handle;
    }
  }
  HVAC_ASSIGN_OR_RETURN(PosixFile out, PosixFile::open_rw(path));
  if (held && !entry.slab) return out;

  if (!held) {
    if (!fill) return out;
    Result<uint64_t> filled = fill(out);
    if (!filled.ok()) {
      if (filled.error().code == ErrorCode::kNotFound) return out;
      return filled.error();
    }
    if (Status cut = out.truncate(*filled); !cut.ok()) {
      release(*filled);
      return cut.error();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    reserved_ -= *filled;  // the bytes stay in bytes_used_, as the entry's
    auto it = entries_.find(logical_path);
    if (it != entries_.end()) {
      // A mover fetched the same bytes meanwhile.
      if (it->second.slab) {
        detach_locked(it->second, &dropped);
      } else {
        bytes_used_.fetch_sub(it->second.size, std::memory_order_relaxed);
      }
    }
    entries_[logical_path] = Entry{*filled, 0, nullptr};
    return out;
  }

  // Copy the slab bytes into the named file, which writes then grow in
  // place and the flusher copies out.
  PosixFile per_read;
  if (!handle) {
    HVAC_ASSIGN_OR_RETURN(per_read, PosixFile::open_read(*entry.slab->name));
  }
  PosixFile& src = handle ? handle->file : per_read;
  HVAC_RETURN_IF_ERROR(out.truncate(0));
  HVAC_ASSIGN_OR_RETURN(uint64_t copied,
                        copy_range(src, entry.base, entry.size, out, 0));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(logical_path);
  if (it != entries_.end() && it->second.slab == entry.slab &&
      it->second.base == entry.base) {
    // The slot's bytes now count as the named file's, until its slab
    // drops; the copy needs no new capacity.
    entry.slab->moved += entry.size;
    bytes_used_.fetch_sub(entry.size - copied, std::memory_order_relaxed);
    detach_locked(it->second, &dropped);
    it->second = Entry{copied, 0, nullptr};
    return out;
  }
  if (it != entries_.end() && !it->second.slab) return out;  // re-pointed
  // Evicted or fetched again meanwhile: the copy is new bytes.
  HVAC_RETURN_IF_ERROR(update_size_locked(logical_path, copied, &dropped));
  return out;
}

Status LocalStore::update_size(const std::string& logical_path,
                               uint64_t new_size) {
  Dropped dropped;
  std::lock_guard<std::mutex> lock(mutex_);
  return update_size_locked(logical_path, new_size, &dropped);
}

Status LocalStore::update_size_locked(const std::string& logical_path,
                                      uint64_t new_size, Dropped* dropped) {
  auto it = entries_.find(logical_path);
  const bool named = it != entries_.end() && !it->second.slab;
  const uint64_t old_size = named ? it->second.size : 0;
  if (new_size > old_size) {
    const uint64_t grow = new_size - old_size;
    if (capacity_ != 0 &&
        bytes_used_.load(std::memory_order_relaxed) + grow > capacity_) {
      return Error(ErrorCode::kCapacity,
                   "local store over capacity growing " + logical_path);
    }
    bytes_used_.fetch_add(grow, std::memory_order_relaxed);
  } else {
    bytes_used_.fetch_sub(old_size - new_size, std::memory_order_relaxed);
  }
  if (it != entries_.end() && it->second.slab) {
    detach_locked(it->second, dropped);
  }
  entries_[logical_path] = Entry{new_size, 0, nullptr};
  return Status::Ok();
}

Result<LocalStore::Pin> LocalStore::open_pinned(
    const std::string& logical_path) const {
  std::shared_ptr<const Handle> held;
  std::shared_ptr<const std::string> slab_name;
  uint64_t slab_ino = 0;
  uint64_t base = 0;
  uint64_t size = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(logical_path);
    if (it == entries_.end()) {
      return Error(ErrorCode::kNotFound, "not cached: " + logical_path);
    }
    const Entry& e = it->second;
    base = e.base;
    size = e.size;
    if (e.slab) {
      if (e.slab->budgeted) {
        held = e.slab->handle;
      } else {
        slab_name = e.slab->name;
        slab_ino = e.slab->ino;
      }
    }
  }
  // Drawn for cached files only, where a local read would happen.
  HVAC_RETURN_IF_ERROR(fault::check(fault::Site::kStoreRead));
  if (held) {
    fd_hits_.fetch_add(1, std::memory_order_relaxed);
    return Pin(std::move(held), base, size);
  }
  fd_misses_.fetch_add(1, std::memory_order_relaxed);
  HVAC_ASSIGN_OR_RETURN(
      PosixFile file,
      PosixFile::open_read(slab_name ? *slab_name
                                     : physical_path(logical_path)));
  if (!slab_name) {
    // A named file's bytes are what is on disk: a write records its
    // size before its bytes land, and keeps it if the write fails.
    HVAC_ASSIGN_OR_RETURN(size, file.size());
  }
  return Pin(std::make_shared<const Handle>(
                 Handle{std::move(file), std::move(slab_name), slab_ino}),
             base, size);
}

Result<uint64_t> LocalStore::evict(const std::string& logical_path) {
  Dropped dropped;
  Entry doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(logical_path);
    if (it == entries_.end()) {
      return Error(ErrorCode::kNotFound, "not cached: " + logical_path);
    }
    doomed = std::move(it->second);
    entries_.erase(it);
    if (doomed.slab) {
      detach_locked(doomed, &dropped);
    } else {
      bytes_used_.fetch_sub(doomed.size, std::memory_order_relaxed);
    }
  }
  if (!doomed.slab) {
    HVAC_RETURN_IF_ERROR(remove_file(physical_path(logical_path)));
  }
  return doomed.size;
}

std::vector<std::string> LocalStore::evict_slab(
    const std::string& logical_path) {
  Dropped dropped;
  std::vector<std::string> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(logical_path);
    if (it == entries_.end()) return out;
    if (it->second.slab) {
      const std::shared_ptr<Slab> slab = it->second.slab;
      for (const std::string& key : slab->keys) {
        auto e = entries_.find(key);
        if (e != entries_.end() && e->second.slab == slab) {
          entries_.erase(e);
          out.push_back(key);
        }
      }
      slab->keys.clear();
      slab->entries = 0;
      seal_locked(slab);
      // Copies still landing keep it (and its bytes) until they settle.
      drop_if_idle_locked(slab, &dropped);
      return out;
    }
  }
  // A named file is a unit of its own.
  if (evict(logical_path).ok()) out.push_back(logical_path);
  return out;
}

void LocalStore::purge() {
  Dropped dropped;
  std::vector<std::string> named;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [logical, entry] : entries_) {
      if (entry.slab) continue;
      named.push_back(physical_path(logical));
      bytes_used_.fetch_sub(entry.size, std::memory_order_relaxed);
    }
    entries_.clear();
    if (filling_) seal_locked(filling_);
    const std::vector<std::shared_ptr<Slab>> all(slabs_.begin(),
                                                 slabs_.end());
    for (const auto& slab : all) {
      slab->entries = 0;
      slab->keys.clear();
      drop_if_idle_locked(slab, &dropped);
    }
  }
  for (const std::string& path : named) (void)remove_file(path);
}

void LocalStore::remove_named_files_except(
    const std::vector<std::string>& keep) {
  std::unordered_set<std::string> kept;
  for (const std::string& logical : keep) kept.insert(physical_path(logical));
  if (DIR* dir = ::opendir(root_.c_str())) {
    while (const dirent* e = ::readdir(dir)) {
      const std::string path = path_join(root_, e->d_name);
      if (has_suffix(e->d_name, kNamedSuffix) && kept.count(path) == 0) {
        (void)remove_file(path);
      }
    }
    ::closedir(dir);
  }
}

size_t LocalStore::entry_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::vector<std::string> LocalStore::logical_paths() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [logical, entry] : entries_) out.push_back(logical);
  return out;
}

LocalStore::FdStats LocalStore::fd_stats() const {
  FdStats stats;
  stats.hits = fd_hits_.load(std::memory_order_relaxed);
  stats.misses = fd_misses_.load(std::memory_order_relaxed);
  stats.budget = fd_budget_;
  std::lock_guard<std::mutex> lock(mutex_);
  stats.open = fds_held_;
  stats.deferred_closes = deferred_closes_;
  for (const auto& slab : slabs_) {
    if (slab->budgeted && slab->handle.use_count() > 1) ++stats.pinned;
  }
  return stats;
}

}  // namespace hvac::storage
