#include "client/packed_catalog.h"

#include "common/hash.h"
#include "common/log.h"
#include "rpc/health.h"  // steady_now_ms — shared monotonic time base

namespace hvac::client {

bool PackedCatalog::fresh_locked() const {
  if (state_ == State::kUnknown) return false;
  return rpc::steady_now_ms() - fetched_at_ms_ < kTtlMs;
}

std::optional<PackedCatalog::Resolved> PackedCatalog::resolve(
    const std::string& logical, const FetchFn& fetch) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!fresh_locked()) {
    // The fetch runs under the mutex on purpose: a training job's
    // worth of workers opening their first samples must produce one
    // index round trip, not a thundering herd of them.
    ++fetches_;
    fetched_at_ms_ = rpc::steady_now_ms();
    auto raw = fetch();
    if (!raw.ok()) {
      // Fail open: an unreachable server must not block opens — the
      // per-file path (and ultimately the PFS) still serves. Re-ask
      // after the TTL.
      HVAC_LOG_DEBUG("packed index fetch failed: "
                     << raw.error().to_string());
      state_ = State::kAbsent;
    } else if (!raw->has_value()) {
      state_ = State::kAbsent;  // dataset simply is not packed
    } else {
      auto index = storage::PackedIndex::decode((*raw)->data(),
                                                (*raw)->size());
      if (!index.ok()) {
        HVAC_LOG_WARN("packed index rejected: "
                      << index.error().to_string());
        state_ = State::kAbsent;
      } else {
        index_ = std::move(index).value();
        state_ = State::kPresent;
        HVAC_LOG_INFO("packed index cached: " << index_.entries.size()
                                              << " samples in "
                                              << index_.container_sizes.size()
                                              << " containers");
      }
    }
  }
  if (state_ != State::kPresent) return std::nullopt;
  const storage::PackedEntry* e = index_.find(stable_hash(logical));
  if (e == nullptr) return std::nullopt;
  Resolved r;
  r.container_logical = storage::packed_container_logical(e->container_id);
  r.base = e->offset;
  r.length = e->length;
  return r;
}

void PackedCatalog::invalidate() {
  std::lock_guard<std::mutex> lock(mutex_);
  state_ = State::kUnknown;
}

uint64_t PackedCatalog::fetches() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fetches_;
}

}  // namespace hvac::client
