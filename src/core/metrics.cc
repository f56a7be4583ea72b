#include "core/metrics.h"

#include <algorithm>
#include <chrono>
#include <sstream>

namespace hvac::core {

double LatencySnapshot::percentile_ns(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 100.0) q = 100.0;
  // Rank of the requested percentile (1-based, nearest-rank).
  const uint64_t rank = static_cast<uint64_t>(q / 100.0 * double(count - 1)) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < kLatencyBuckets; ++i) {
    if (buckets[i] == 0) continue;
    if (seen + buckets[i] >= rank) {
      const double lo = double(uint64_t{1} << i);
      const double hi = i + 1 >= 64 ? lo * 2.0 : double(uint64_t{1} << (i + 1));
      // Linear interpolation by rank position within the bucket.
      const double frac = double(rank - seen - 1) / double(buckets[i]);
      return lo + frac * (hi - lo);
    }
    seen += buckets[i];
  }
  return double(uint64_t{1} << (kLatencyBuckets - 1));
}

void LatencySnapshot::merge(const LatencySnapshot& other) {
  count += other.count;
  total_ns += other.total_ns;
  for (size_t i = 0; i < kLatencyBuckets; ++i) buckets[i] += other.buckets[i];
}

ReadAheadCounters& ReadAheadCounters::global() {
  static ReadAheadCounters counters;
  return counters;
}

PrefetchCounters& PrefetchCounters::global() {
  static PrefetchCounters counters;
  return counters;
}

namespace {
uint64_t monotonic_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

uint64_t StallCounters::current_epoch() const {
  if (plan_mode_.load(std::memory_order_relaxed)) {
    return plan_epoch_.load(std::memory_order_relaxed);
  }
  // Time-bucket fallback: epochs tick every kFallbackEpochNs from the
  // first charge, so unplanned jobs still get a time axis.
  uint64_t origin = start_ns_.load(std::memory_order_relaxed);
  const uint64_t now = monotonic_ns();
  if (origin == 0) {
    uint64_t expected = 0;
    start_ns_.compare_exchange_strong(expected, now,
                                      std::memory_order_relaxed);
    origin = start_ns_.load(std::memory_order_relaxed);
  }
  return now >= origin ? (now - origin) / kFallbackEpochNs : 0;
}

StallCounters::Slot& StallCounters::slot_for(uint64_t epoch) {
  Slot& s = slots_[epoch % kEpochWindow];
  if (s.used.load(std::memory_order_relaxed) == 0 ||
      s.epoch.load(std::memory_order_relaxed) != epoch) {
    // A new epoch recycles the slot. Concurrent resets (or a straggler
    // charge from the evicted epoch landing in the fresh slot) only
    // smudge the boundary sample — acceptable for attribution data.
    s.epoch.store(epoch, std::memory_order_relaxed);
    s.reads.store(0, std::memory_order_relaxed);
    s.total_ns.store(0, std::memory_order_relaxed);
    for (auto& b : s.bucket_ns) b.store(0, std::memory_order_relaxed);
    s.used.store(1, std::memory_order_relaxed);
  }
  return s;
}

void StallCounters::begin_epoch(uint64_t id) {
  plan_epoch_.store(id, std::memory_order_relaxed);
  plan_mode_.store(true, std::memory_order_relaxed);
  slot_for(id);
}

void StallCounters::charge(StallBucket bucket, uint64_t ns) {
  if (ns == 0) return;
  Slot& s = slot_for(current_epoch());
  s.total_ns.fetch_add(ns, std::memory_order_relaxed);
  s.bucket_ns[static_cast<size_t>(bucket)].fetch_add(
      ns, std::memory_order_relaxed);
}

void StallCounters::on_read() {
  slot_for(current_epoch())
      .reads.fetch_add(1, std::memory_order_relaxed);
}

std::vector<StallEpochRow> StallCounters::snapshot() const {
  std::vector<StallEpochRow> rows;
  for (const Slot& s : slots_) {
    if (s.used.load(std::memory_order_relaxed) == 0) continue;
    StallEpochRow r;
    r.epoch = s.epoch.load(std::memory_order_relaxed);
    r.reads = s.reads.load(std::memory_order_relaxed);
    r.total_ns = s.total_ns.load(std::memory_order_relaxed);
    r.local_hit_ns = s.bucket_ns[0].load(std::memory_order_relaxed);
    r.remote_rpc_ns = s.bucket_ns[1].load(std::memory_order_relaxed);
    r.pfs_wait_ns = s.bucket_ns[2].load(std::memory_order_relaxed);
    r.backpressure_ns = s.bucket_ns[3].load(std::memory_order_relaxed);
    r.retry_ns = s.bucket_ns[4].load(std::memory_order_relaxed);
    rows.push_back(r);
  }
  std::sort(rows.begin(), rows.end(),
            [](const StallEpochRow& a, const StallEpochRow& b) {
              return a.epoch < b.epoch;
            });
  return rows;
}

StallCounters& StallCounters::global() {
  static StallCounters counters;
  return counters;
}

std::string MetricsSnapshot::to_string() const {
  std::ostringstream oss;
  oss << "hits=" << hits << " misses=" << misses
      << " hit_rate=" << hit_rate() << " dedup_waits=" << dedup_waits
      << " evictions=" << evictions
      << " bytes_from_cache=" << bytes_from_cache
      << " bytes_from_pfs=" << bytes_from_pfs
      << " pfs_fallbacks=" << pfs_fallbacks;
  return oss.str();
}

}  // namespace hvac::core
