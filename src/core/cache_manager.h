// CacheManager — the server-side cache brain.
//
// Guarantees (paper §III-D):
//   * Single-copy: when N clients request the same uncached file
//     concurrently, exactly one PFS->NVMe copy runs; the other N-1
//     callers block until it completes ("we use mutex lock on shared
//     queue to guarantee consistency and to avoid repeated copying").
//   * Capacity: when the local store exceeds its budget, the eviction
//     policy picks victims until the new file fits (paper §III-G). A
//     file that is larger than the whole store is served from PFS
//     directly (counted as a pfs_fallback) rather than thrashing.
//   * Read-only: the cache never mutates the source file; a cached
//     copy is immutable until evicted or purged.
#pragma once

#include <condition_variable>
#include <functional>
#include <memory>
#include <string>  // (segment keys)
#include <mutex>
#include <string>
#include <unordered_set>

#include "common/result.h"
#include "core/eviction.h"
#include "core/metrics.h"
#include "storage/local_store.h"
#include "storage/pfs_backend.h"

namespace hvac::core {

class CacheManager {
 public:
  // Does not take ownership of `pfs`; it must outlive the manager.
  CacheManager(storage::PfsBackend* pfs,
               std::unique_ptr<storage::LocalStore> store,
               std::unique_ptr<EvictionPolicy> eviction);

  // Ensures `logical_path` (relative to the PFS root) is cached,
  // copying it from the PFS if needed. Returns:
  //   true  — served from (or now present in) the local cache
  //   false — cacheable capacity exceeded; caller should read through
  //           to the PFS (fallback), file is NOT cached
  // or an error if the PFS itself failed.
  Result<bool> ensure_cached(const std::string& logical_path);

  // Opens the cached copy (ensure_cached must have returned true).
  Result<storage::PosixFile> open_cached(const std::string& logical_path);

  // Reads file bytes through the cache: hit -> local store, miss ->
  // copy then local store, capacity overflow -> PFS passthrough.
  Result<std::vector<uint8_t>> read_through(const std::string& logical_path);

  // Positional read through the cache with the same semantics.
  Result<size_t> pread_through(const std::string& logical_path, void* buf,
                               size_t count, uint64_t offset);

  // ---- segment-level caching (paper §III-E extension) ------------------
  // Ensures segment `seg_index` (of `segment_bytes`-sized segments) of
  // the file is cached; same return convention as ensure_cached. The
  // cache key is segment_key(path, idx), so different segments can be
  // owned by different servers.
  Result<bool> ensure_segment_cached(const std::string& logical_path,
                                     uint64_t seg_index,
                                     uint64_t segment_bytes);

  // Positional read within one segment (offset relative to the
  // segment start). Falls back to a PFS range read on capacity
  // overflow.
  Result<size_t> pread_segment(const std::string& logical_path,
                               uint64_t seg_index, uint64_t segment_bytes,
                               void* buf, size_t count,
                               uint64_t offset_in_segment);

  bool is_cached(const std::string& logical_path) const {
    return store_->contains(logical_path);
  }

  // Hit accounting for a copy served outside ensure_cached (the
  // server's reactor-side kOpen): records the eviction touch and the
  // hit that ensure_cached's fast path records. Returns false, having
  // recorded nothing, when `key` is not cached.
  bool touch_if_cached(const std::string& key);

  // Drops one file (tests / manual control).
  Status evict(const std::string& logical_path);

  // Job teardown.
  void purge() { store_->purge(); }

  const MetricsSnapshot metrics() const { return metrics_.snapshot(); }

  // Byte accounting for callers that read via their own handles (the
  // HVAC server serves pread RPCs off a cached fd, outside
  // read_through).
  void record_served_bytes(uint64_t bytes, bool from_cache) {
    if (from_cache) {
      metrics_.add_cache_bytes(bytes);
    } else {
      metrics_.add_pfs_bytes(bytes);
    }
  }
  storage::LocalStore& store() { return *store_; }
  storage::PfsBackend& pfs() { return *pfs_; }

 private:
  // Makes room for `needed` bytes; returns false when impossible.
  bool make_room(uint64_t needed);

  // Shared miss path: serializes concurrent first-reads of `key`,
  // sizes the payload with `sized`, copies it in with `fetch`.
  Result<bool> ensure_key_cached(
      const std::string& key,
      const std::function<Result<uint64_t>()>& sized,
      const std::function<Result<uint64_t>(const std::string& dst)>& fetch);

  storage::PfsBackend* pfs_;
  std::unique_ptr<storage::LocalStore> store_;
  std::unique_ptr<EvictionPolicy> eviction_;
  Metrics metrics_;

  std::mutex inflight_mutex_;
  std::condition_variable inflight_cv_;
  std::unordered_set<std::string> inflight_;
};

}  // namespace hvac::core
