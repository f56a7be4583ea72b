#include "core/cache_manager.h"

#include <algorithm>

#include "common/log.h"
#include "core/segment.h"

namespace hvac::core {

CacheManager::CacheManager(storage::PfsBackend* pfs,
                           std::unique_ptr<storage::LocalStore> store,
                           std::unique_ptr<EvictionPolicy> eviction)
    : pfs_(pfs), store_(std::move(store)), eviction_(std::move(eviction)) {}

bool CacheManager::reserve_room(uint64_t needed) {
  std::unique_lock<std::mutex> lock(room_mutex_);
  for (;;) {
    if (store_->reserve(needed).ok()) return true;
    if (needed > store_->capacity_bytes()) return false;
    auto victim = eviction_->select_victim();
    if (victim.has_value()) {
      // Space comes back a slab at a time: every entry sharing the
      // victim's slab goes with it, and the policy hears of each.
      const std::vector<std::string> dropped = store_->evict_slab(*victim);
      if (dropped.empty()) eviction_->on_evict(*victim);  // stale victim
      for (const std::string& key : dropped) {
        eviction_->on_evict(key);
        metrics_.on_eviction();
      }
      continue;
    }
    // Nothing evictable: if copies are in flight, their bytes come
    // back as evictable entries or released claims.
    if (store_->reserved_bytes() == 0) return false;
    const uint64_t seen = room_changes_;
    room_cv_.wait(lock, [&] { return room_changes_ != seen; });
  }
}

void CacheManager::notify_room() {
  {
    std::lock_guard<std::mutex> lock(room_mutex_);
    ++room_changes_;
  }
  room_cv_.notify_all();
}

bool CacheManager::touch_if_cached(const std::string& key) {
  if (!store_->contains(key)) return false;
  eviction_->on_access(key);
  metrics_.on_hit();
  return true;
}

Result<bool> CacheManager::ensure_key_cached(
    const std::string& key, const std::string& logical_path,
    uint64_t offset,
    const std::function<Result<uint64_t>(uint64_t file_size)>& sized) {
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

  // One PFS metadata op: the open. The size comes from fstat on that
  // fd and the copy reads the same fd.
  auto src = pfs_->open(logical_path);
  if (!src.ok()) return finish(src.error());
  auto file_size = src->size();
  if (!file_size.ok()) return finish(file_size.error());
  auto size = sized(*file_size);
  if (!size.ok()) return finish(size.error());

  if (!reserve_room(*size)) {
    HVAC_LOG_DEBUG("capacity fallback for " << key << " (" << *size
                                            << " bytes)");
    return finish(false);
  }

  // The copy lands in a slot of a slab the store holds open: a fetch
  // creates no file, and the slab's fd serves the entry's reads.
  auto slot = store_->claim(*size);
  if (!slot.ok()) {
    store_->release(*size);
    notify_room();
    return finish(slot.error());
  }
  Result<uint64_t> copied =
      pfs_->copy_out(*src, slot->file(), offset, *size, slot->base());
  if (!copied.ok()) {
    store_->abandon(std::move(slot).value());
    notify_room();
    return finish(copied.error());
  }
  store_->insert(key, std::move(slot).value(), *copied);
  eviction_->on_insert(key);
  notify_room();
  metrics_.on_miss(*copied);
  return finish(true);
}

Result<uint64_t> CacheManager::prefill(const std::string& logical_path,
                                       storage::PosixFile& out) {
  HVAC_ASSIGN_OR_RETURN(storage::PosixFile src, pfs_->open(logical_path));
  HVAC_ASSIGN_OR_RETURN(uint64_t size, src.size());
  if (!reserve_room(size)) {
    return Error(ErrorCode::kCapacity,
                 "prefill over store capacity: " + logical_path);
  }
  Result<uint64_t> copied = pfs_->copy_out(src, out, 0, size, 0);
  store_->release(copied.ok() ? size - *copied : size);
  notify_room();
  if (!copied.ok()) return copied.error();
  eviction_->on_insert(logical_path);
  metrics_.on_miss(*copied);
  return *copied;
}

Result<bool> CacheManager::ensure_cached(const std::string& logical_path) {
  return ensure_key_cached(logical_path, logical_path, 0,
                           [](uint64_t file_size) -> Result<uint64_t> {
                             return file_size;
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
      key, logical_path, offset,
      [&](uint64_t file_size) -> Result<uint64_t> {
        if (offset >= file_size) {
          return Error(ErrorCode::kInvalidArgument,
                       "segment past EOF: " + key);
        }
        return std::min<uint64_t>(segment_bytes, file_size - offset);
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
    std::vector<uint8_t> data(pin->size());
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
