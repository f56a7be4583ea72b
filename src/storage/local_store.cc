#include "storage/local_store.h"

#include <cinttypes>
#include <cstdio>

#include "common/env.h"
#include "common/fault_injection.h"
#include "common/hash.h"

namespace hvac::storage {

LocalStore::LocalStore(std::string root, uint64_t capacity_bytes,
                       size_t handle_cache_slots)
    : root_(std::move(root)), capacity_(capacity_bytes) {
  if (handle_cache_slots == kHandleCacheFromEnv) {
    const int64_t slots = env_int_or("HVAC_HANDLE_CACHE", 128);
    handle_cache_slots = slots > 0 ? static_cast<size_t>(slots) : 0;
  }
  handles_ = std::make_unique<OpenHandleCache>(handle_cache_slots);
  (void)make_directories(root_);
}

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
                          uint64_t size_bytes, uint64_t reserved) {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t used = bytes_used_.load(std::memory_order_relaxed);
  if (capacity_ != 0 && used - reserved + size_bytes > capacity_) {
    return Error(ErrorCode::kCapacity,
                 "local store over capacity inserting " + logical_path);
  }
  reserved_ -= reserved;
  bytes_used_.fetch_sub(reserved, std::memory_order_relaxed);
  auto [it, inserted] = entries_.emplace(logical_path, size_bytes);
  if (!inserted) return Status::Ok();  // already cached; idempotent
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
  const uint64_t old_size = it == entries_.end() ? 0 : it->second;
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
  entries_[logical_path] = new_size;
  return Status::Ok();
}

Result<OpenHandleCache::Pin> LocalStore::open_pinned(
    const std::string& logical_path) const {
  HVAC_RETURN_IF_ERROR(fault::check(fault::Site::kStoreRead));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (entries_.count(logical_path) == 0) {
      return Error(ErrorCode::kNotFound, "not cached: " + logical_path);
    }
  }
  return handles_->acquire(logical_path, physical_path(logical_path));
}

Result<uint64_t> LocalStore::evict(const std::string& logical_path) {
  uint64_t size = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(logical_path);
    if (it == entries_.end()) {
      return Error(ErrorCode::kNotFound, "not cached: " + logical_path);
    }
    size = it->second;
    entries_.erase(it);
    bytes_used_.fetch_sub(size, std::memory_order_relaxed);
  }
  // Drop the cached handle before unlinking: in-flight pinned reads
  // keep their fd (unlink doesn't invalidate it), future opens miss.
  handles_->invalidate(logical_path);
  HVAC_RETURN_IF_ERROR(remove_file(physical_path(logical_path)));
  return size;
}

void LocalStore::purge() {
  std::lock_guard<std::mutex> lock(mutex_);
  handles_->clear();
  for (const auto& [logical, size] : entries_) {
    (void)remove_file(physical_path(logical));
  }
  entries_.clear();
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
  for (const auto& [logical, size] : entries_) out.push_back(logical);
  return out;
}

}  // namespace hvac::storage
