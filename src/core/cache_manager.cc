#include "core/cache_manager.h"

#include <algorithm>

#include "common/log.h"
#include "core/segment.h"

namespace hvac::core {

CacheManager::CacheManager(storage::PfsBackend* pfs,
                           std::unique_ptr<storage::LocalStore> store,
                           std::unique_ptr<EvictionPolicy> eviction)
    : pfs_(pfs), store_(std::move(store)), eviction_(std::move(eviction)) {}

bool CacheManager::make_room(uint64_t needed) {
  const uint64_t capacity = store_->capacity_bytes();
  if (capacity == 0) return true;  // unlimited
  if (needed > capacity) return false;
  while (store_->bytes_used() + needed > capacity) {
    auto victim = eviction_->select_victim();
    if (!victim.has_value()) return false;
    eviction_->on_evict(*victim);
    if (store_->evict(*victim).ok()) {
      metrics_.on_eviction();
    }
  }
  return true;
}

bool CacheManager::touch_if_cached(const std::string& key) {
  if (!store_->contains(key)) return false;
  eviction_->on_access(key);
  metrics_.on_hit();
  return true;
}

Result<bool> CacheManager::ensure_key_cached(
    const std::string& key,
    const std::function<Result<uint64_t>()>& sized,
    const std::function<Result<uint64_t>(const std::string& dst)>& fetch) {
  // Fast path: already cached.
  if (touch_if_cached(key)) return true;

  // Serialize concurrent first-reads of the same key.
  {
    std::unique_lock<std::mutex> lock(inflight_mutex_);
    if (inflight_.count(key) > 0) {
      metrics_.on_dedup_wait();
      inflight_cv_.wait(lock, [&] { return inflight_.count(key) == 0; });
      // The winner finished; it either cached the key or decided on
      // fallback. Re-check the store.
      if (store_->contains(key)) {
        eviction_->on_access(key);
        metrics_.on_hit();
        return true;
      }
      return false;  // winner fell back to PFS (capacity)
    }
    if (store_->contains(key)) {
      eviction_->on_access(key);
      metrics_.on_hit();
      return true;
    }
    inflight_.insert(key);
  }

  // We are the designated copier. Always clear the in-flight mark.
  auto finish = [&](Result<bool> result) -> Result<bool> {
    {
      std::lock_guard<std::mutex> lock(inflight_mutex_);
      inflight_.erase(key);
    }
    inflight_cv_.notify_all();
    return result;
  };

  auto size = sized();
  if (!size.ok()) return finish(size.error());

  if (!make_room(*size)) {
    HVAC_LOG_DEBUG("capacity fallback for " << key << " (" << *size
                                            << " bytes)");
    return finish(false);
  }

  const std::string dst = store_->physical_path(key);
  auto copied = fetch(dst);
  if (!copied.ok()) {
    (void)storage::remove_file(dst);
    return finish(copied.error());
  }
  Status inserted = store_->insert(key, *copied);
  if (!inserted.ok()) {
    (void)storage::remove_file(dst);
    return finish(false);
  }
  eviction_->on_insert(key);
  metrics_.on_miss(*copied);
  return finish(true);
}

Result<bool> CacheManager::ensure_cached(const std::string& logical_path) {
  return ensure_key_cached(
      logical_path, [&] { return pfs_->size_of(logical_path); },
      [&](const std::string& dst) {
        return pfs_->copy_out(logical_path, dst);
      });
}

Result<bool> CacheManager::ensure_segment_cached(
    const std::string& logical_path, uint64_t seg_index,
    uint64_t segment_bytes) {
  if (segment_bytes == 0) {
    return Error(ErrorCode::kInvalidArgument, "segment_bytes == 0");
  }
  const std::string key = segment_key(logical_path, seg_index);
  const uint64_t offset = seg_index * segment_bytes;
  return ensure_key_cached(
      key,
      [&]() -> Result<uint64_t> {
        HVAC_ASSIGN_OR_RETURN(uint64_t file_size,
                              pfs_->size_of(logical_path));
        if (offset >= file_size) {
          return Error(ErrorCode::kInvalidArgument,
                       "segment past EOF: " + key);
        }
        return std::min<uint64_t>(segment_bytes, file_size - offset);
      },
      [&](const std::string& dst) {
        return pfs_->copy_range_out(logical_path, dst, offset,
                                    segment_bytes);
      });
}

Result<size_t> CacheManager::pread_segment(const std::string& logical_path,
                                           uint64_t seg_index,
                                           uint64_t segment_bytes,
                                           void* buf, size_t count,
                                           uint64_t offset_in_segment) {
  const uint64_t file_offset =
      seg_index * segment_bytes + offset_in_segment;
  // Under eviction pressure the segment can be evicted between
  // ensure_segment_cached and the store open (another thread made
  // room for its own fetch) — retry, then read through the PFS.
  for (int attempt = 0; attempt < 3; ++attempt) {
    HVAC_ASSIGN_OR_RETURN(
        bool cached,
        ensure_segment_cached(logical_path, seg_index, segment_bytes));
    if (!cached) break;  // capacity fallback
    // Pinned handle: steady-state hits skip the open/close pair, and
    // the pin defers a concurrent eviction's close past this pread.
    auto pin = store_->open_pinned(segment_key(logical_path, seg_index));
    if (!pin.ok()) {
      if (pin.error().code == ErrorCode::kNotFound) continue;  // evicted
      return pin.error();
    }
    HVAC_ASSIGN_OR_RETURN(size_t n,
                          pin->pread(buf, count, offset_in_segment));
    metrics_.add_cache_bytes(n);
    return n;
  }
  HVAC_ASSIGN_OR_RETURN(storage::PosixFile f, pfs_->open(logical_path));
  HVAC_ASSIGN_OR_RETURN(size_t n, pfs_->pread(f, buf, count, file_offset));
  metrics_.on_pfs_fallback(n);
  return n;
}

Result<storage::PosixFile> CacheManager::open_cached(
    const std::string& logical_path) {
  return store_->open(logical_path);
}

Result<std::vector<uint8_t>> CacheManager::read_through(
    const std::string& logical_path) {
  // Retry if the file is evicted between the ensure and the open
  // (concurrent fetches under capacity pressure evict each other).
  for (int attempt = 0; attempt < 3; ++attempt) {
    HVAC_ASSIGN_OR_RETURN(bool cached, ensure_cached(logical_path));
    if (!cached) break;  // capacity fallback
    auto pin = store_->open_pinned(logical_path);
    if (!pin.ok()) {
      if (pin.error().code == ErrorCode::kNotFound) continue;  // evicted
      return pin.error();
    }
    HVAC_ASSIGN_OR_RETURN(uint64_t sz, pin->size());
    std::vector<uint8_t> data(sz);
    size_t got = 0;
    while (got < data.size()) {
      // pread (not read): the shared pinned handle must not carry a
      // file offset that concurrent readers would race on.
      HVAC_ASSIGN_OR_RETURN(
          size_t n, pin->pread(data.data() + got, data.size() - got, got));
      if (n == 0) break;
      got += n;
    }
    data.resize(got);
    metrics_.add_cache_bytes(data.size());
    return data;
  }
  auto data = pfs_->read_all(logical_path);
  if (data.ok()) metrics_.on_pfs_fallback(data->size());
  return data;
}

Result<size_t> CacheManager::pread_through(const std::string& logical_path,
                                           void* buf, size_t count,
                                           uint64_t offset) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    HVAC_ASSIGN_OR_RETURN(bool cached, ensure_cached(logical_path));
    if (!cached) break;  // capacity fallback
    auto pin = store_->open_pinned(logical_path);
    if (!pin.ok()) {
      if (pin.error().code == ErrorCode::kNotFound) continue;  // evicted
      // A sick local store (NVMe I/O error, injected fault) must not
      // fail the read — degrade to the PFS below (§III-H fail-open).
      HVAC_LOG_WARN("local store open failed for " << logical_path
                    << ", serving from PFS: "
                    << pin.error().to_string());
      break;
    }
    auto n = pin->pread(buf, count, offset);
    if (!n.ok()) {
      HVAC_LOG_WARN("local store read failed for " << logical_path
                    << ", serving from PFS: " << n.error().to_string());
      break;
    }
    metrics_.add_cache_bytes(*n);
    return *n;
  }
  HVAC_ASSIGN_OR_RETURN(storage::PosixFile f, pfs_->open(logical_path));
  HVAC_ASSIGN_OR_RETURN(size_t n, pfs_->pread(f, buf, count, offset));
  metrics_.on_pfs_fallback(n);
  return n;
}

Status CacheManager::evict(const std::string& logical_path) {
  eviction_->on_evict(logical_path);
  HVAC_ASSIGN_OR_RETURN(uint64_t size, store_->evict(logical_path));
  (void)size;
  metrics_.on_eviction();
  return Status::Ok();
}

}  // namespace hvac::core
