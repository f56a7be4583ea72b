#include "storage/local_store.h"

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>

#include "common/env.h"
#include "common/fault_injection.h"
#include "common/hash.h"

namespace hvac::storage {

namespace {

// fds held by entries of every store in the process.
std::atomic<size_t> g_fds_held{0};

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

}  // namespace

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
      fd_budget_(fd_budget) {
  (void)make_directories(root_);
}

LocalStore::~LocalStore() { release_fds(fds_held_); }

std::string LocalStore::physical_path(
    const std::string& logical_path) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%016" PRIx64,
                stable_hash(logical_path));
  return path_join(root_, std::string(name) + ".hvac");
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

Status LocalStore::insert(const std::string& logical_path,
                          uint64_t size_bytes, uint64_t reserved,
                          PosixFile file) {
  // Settle the fd before taking the lock: an open is a syscall, and a
  // failed one (EMFILE/ENFILE, a vanished copy) only costs the entry
  // its fd.
  std::shared_ptr<const PosixFile> held;
  if (claim_fd(fd_budget_)) {
    if (!file.valid()) {
      auto opened = PosixFile::open_read(physical_path(logical_path));
      if (opened.ok()) file = std::move(opened).value();
    }
    if (file.valid()) {
      held = std::make_shared<const PosixFile>(std::move(file));
    } else {
      release_fds(1);
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t used = bytes_used_.load(std::memory_order_relaxed);
  const bool fits =
      capacity_ == 0 || used - reserved + size_bytes <= capacity_;
  const bool fresh = fits && entries_.count(logical_path) == 0;
  if (held && !fresh) release_fds(1);  // `held` closes on return
  if (!fits) {
    return Error(ErrorCode::kCapacity,
                 "local store over capacity inserting " + logical_path);
  }
  reserved_ -= reserved;
  bytes_used_.fetch_sub(reserved, std::memory_order_relaxed);
  if (!fresh) return Status::Ok();  // already cached; idempotent
  if (held) ++fds_held_;
  entries_.emplace(logical_path, Entry{size_bytes, std::move(held)});
  bytes_used_.fetch_add(size_bytes, std::memory_order_relaxed);
  return Status::Ok();
}

Result<PosixFile> LocalStore::open(const std::string& logical_path) const {
  HVAC_RETURN_IF_ERROR(fault::check(fault::Site::kStoreRead));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (entries_.count(logical_path) == 0) {
      return Error(ErrorCode::kNotFound, "not cached: " + logical_path);
    }
  }
  return PosixFile::open_read(physical_path(logical_path));
}

Result<PosixFile> LocalStore::open_write(
    const std::string& logical_path) const {
  HVAC_RETURN_IF_ERROR(fault::check(fault::Site::kStoreWrite));
  return PosixFile::open_rw(physical_path(logical_path));
}

Status LocalStore::update_size(const std::string& logical_path,
                               uint64_t new_size) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(logical_path);
  const uint64_t old_size = it == entries_.end() ? 0 : it->second.size;
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
  entries_[logical_path].size = new_size;
  return Status::Ok();
}

Result<LocalStore::Pin> LocalStore::open_pinned(
    const std::string& logical_path) const {
  std::shared_ptr<const PosixFile> held;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(logical_path);
    if (it == entries_.end()) {
      return Error(ErrorCode::kNotFound, "not cached: " + logical_path);
    }
    held = it->second.file;
  }
  // Drawn for cached files only, where a local read would happen.
  HVAC_RETURN_IF_ERROR(fault::check(fault::Site::kStoreRead));
  if (held) {
    fd_hits_.fetch_add(1, std::memory_order_relaxed);
    return Pin(std::move(held));
  }
  fd_misses_.fetch_add(1, std::memory_order_relaxed);
  HVAC_ASSIGN_OR_RETURN(PosixFile file,
                        PosixFile::open_read(physical_path(logical_path)));
  return Pin(std::make_shared<const PosixFile>(std::move(file)));
}

void LocalStore::drop_fd_locked(const Entry& entry) {
  if (!entry.file) return;
  --fds_held_;
  release_fds(1);
  if (entry.file.use_count() > 1) ++deferred_closes_;
}

Result<uint64_t> LocalStore::evict(const std::string& logical_path) {
  Entry doomed;  // its fd closes on return, or with the last pin
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(logical_path);
    if (it == entries_.end()) {
      return Error(ErrorCode::kNotFound, "not cached: " + logical_path);
    }
    doomed = std::move(it->second);
    entries_.erase(it);
    bytes_used_.fetch_sub(doomed.size, std::memory_order_relaxed);
    drop_fd_locked(doomed);
  }
  // Pinned reads keep their fd: unlink does not invalidate it.
  HVAC_RETURN_IF_ERROR(remove_file(physical_path(logical_path)));
  return doomed.size;
}

void LocalStore::purge() {
  std::unordered_map<std::string, Entry> drained;  // fds close after unlock
  std::lock_guard<std::mutex> lock(mutex_);
  drained.swap(entries_);
  for (const auto& [logical, entry] : drained) {
    (void)remove_file(physical_path(logical));
    drop_fd_locked(entry);
  }
  bytes_used_.store(reserved_, std::memory_order_relaxed);
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
  for (const auto& [logical, entry] : entries_) {
    if (entry.file && entry.file.use_count() > 1) ++stats.pinned;
  }
  return stats;
}

}  // namespace hvac::storage
