// Lightweight cache metrics, safe to bump from any thread, plus the
// per-op latency histograms behind the metrics frame v2 (see
// core/metrics_frame.h for the wire format).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hvac::core {

struct MetricsSnapshot {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t dedup_waits = 0;   // first-reads that piggybacked on an
                              // in-flight copy instead of re-copying
  uint64_t evictions = 0;
  uint64_t bytes_from_cache = 0;
  uint64_t bytes_from_pfs = 0;
  uint64_t pfs_fallbacks = 0;  // requests served directly from PFS
                               // (capacity pressure or server loss)

  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
  std::string to_string() const;
};

class Metrics {
 public:
  void on_hit() { hits_.fetch_add(1, std::memory_order_relaxed); }
  void on_miss(uint64_t bytes) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    bytes_from_pfs_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void add_cache_bytes(uint64_t bytes) {
    bytes_from_cache_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void add_pfs_bytes(uint64_t bytes) {
    bytes_from_pfs_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void on_dedup_wait() { dedup_waits_.fetch_add(1, std::memory_order_relaxed); }
  void on_eviction() { evictions_.fetch_add(1, std::memory_order_relaxed); }
  void on_pfs_fallback(uint64_t bytes) {
    pfs_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    bytes_from_pfs_.fetch_add(bytes, std::memory_order_relaxed);
  }

  MetricsSnapshot snapshot() const {
    MetricsSnapshot s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.dedup_waits = dedup_waits_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.bytes_from_cache = bytes_from_cache_.load(std::memory_order_relaxed);
    s.bytes_from_pfs = bytes_from_pfs_.load(std::memory_order_relaxed);
    s.pfs_fallbacks = pfs_fallbacks_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> dedup_waits_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> bytes_from_cache_{0};
  std::atomic<uint64_t> bytes_from_pfs_{0};
  std::atomic<uint64_t> pfs_fallbacks_{0};
};

// ---- latency histograms ---------------------------------------------------

// Log2-bucketed latency histogram: bucket i counts samples in
// [2^i, 2^(i+1)) nanoseconds. 40 buckets cover 1 ns .. ~18 minutes,
// which brackets everything from an in-memory cache hit to a PFS stall.
constexpr size_t kLatencyBuckets = 40;

// Point-in-time copy of one histogram, mergeable across instances.
struct LatencySnapshot {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  std::array<uint64_t, kLatencyBuckets> buckets{};

  // Percentile estimate (q in [0, 100]) with linear interpolation
  // inside the winning bucket. Log buckets bound the error to 2x,
  // plenty for p50/p99 dashboards.
  double percentile_ns(double q) const;
  double mean_ns() const { return count == 0 ? 0.0 : double(total_ns) / double(count); }

  void merge(const LatencySnapshot& other);
};

// Lock-free bump histogram: record() is one relaxed fetch_add per
// sample (plus one for the running total), so handler threads never
// serialize on observability.
class LatencyHistogram {
 public:
  static size_t bucket_of(uint64_t ns) {
    if (ns == 0) return 0;
    const size_t b = std::bit_width(ns) - 1;  // floor(log2(ns))
    return b < kLatencyBuckets ? b : kLatencyBuckets - 1;
  }

  void record(uint64_t ns) {
    counts_[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  LatencySnapshot snapshot() const {
    LatencySnapshot s;
    for (size_t i = 0; i < kLatencyBuckets; ++i) {
      s.buckets[i] = counts_[i].load(std::memory_order_relaxed);
      s.count += s.buckets[i];
    }
    s.total_ns = total_ns_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::array<std::atomic<uint64_t>, kLatencyBuckets> counts_{};
  std::atomic<uint64_t> total_ns_{0};
};

// Per-opcode latency histograms for the RPC handler table. Opcodes are
// small protocol constants (hvac::proto::Opcode); anything above
// kMaxOp lands in the overflow slot rather than growing the set, so
// kMaxOp must stay ahead of the highest assigned opcode.
class OpLatencySet {
 public:
  static constexpr uint16_t kMaxOp = 24;

  void record(uint16_t op, uint64_t ns) {
    hist_[op <= kMaxOp ? op : 0].record(ns);
  }

  // Snapshot of every op that has seen at least one sample.
  std::map<uint16_t, LatencySnapshot> snapshot() const {
    std::map<uint16_t, LatencySnapshot> out;
    for (uint16_t op = 0; op <= kMaxOp; ++op) {
      LatencySnapshot s = hist_[op].snapshot();
      if (s.count > 0) out.emplace(op, std::move(s));
    }
    return out;
  }

 private:
  std::array<LatencyHistogram, kMaxOp + 1> hist_;
};

// RAII sample: times its own scope and records into `set` on exit.
class ScopedLatencyTimer {
 public:
  ScopedLatencyTimer(OpLatencySet& set, uint16_t op)
      : set_(set), op_(op), start_(std::chrono::steady_clock::now()) {}
  ~ScopedLatencyTimer() {
    if (dismissed_) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - start_);
    set_.record(op_, static_cast<uint64_t>(ns.count()));
  }
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

  // Records nothing: the op will be timed again where it completes (a
  // reactor probe that re-queued its request).
  void dismiss() { dismissed_ = true; }

 private:
  OpLatencySet& set_;
  uint16_t op_;
  std::chrono::steady_clock::time_point start_;
  bool dismissed_ = false;
};

// ---- client read-ahead counters -------------------------------------------

// Process-wide read-ahead accounting, bumped by every HvacClient in
// the process and exported through the metrics frame. Lives in core so
// both the client library (producer) and anything assembling a frame
// (consumer) reach it without a client<->server dependency.
struct ReadAheadCounters {
  std::atomic<uint64_t> issued{0};    // chunks requested ahead of the app
  std::atomic<uint64_t> consumed{0};  // reads served from a pending chunk
  std::atomic<uint64_t> wasted{0};    // pending chunks discarded unread

  static ReadAheadCounters& global();
};

// ---- clairvoyant prefetch counters ----------------------------------------

// Process-wide accounting for the client's plan-driven prefetch
// scheduler (client/prefetch_scheduler.h). Like the read-ahead
// counters, the producers are HvacClients and the consumers are the
// metrics frame (section 11) and the HVAC_STATS_FILE dump. The
// paced_delay histogram records how long the token bucket stalled
// each issued batch — nonzero means HVAC_PREFETCH_BW_MBPS is actually
// shaping warm-up traffic.
struct PrefetchCounters {
  std::atomic<uint64_t> planned{0};    // samples accepted into plans
  std::atomic<uint64_t> issued{0};     // samples sent in prefetch batches
  std::atomic<uint64_t> completed{0};  // answered cached by the server
  std::atomic<uint64_t> shed{0};       // answered shed (mover backpressure)
  std::atomic<uint64_t> late{0};       // cursor reached the sample before
                                       // its prefetch completed
  std::atomic<uint64_t> hit_after{0};  // cursor reached a sample its
                                       // prefetch had already warmed
  LatencyHistogram paced_delay;        // per-batch token-bucket stall (ns)

  static PrefetchCounters& global();
};

// ---- I/O stall attribution ------------------------------------------------

// Where one intercepted read's wall time went. The client read path
// charges every nanosecond of a top-level read() / pread() to exactly
// one bucket (checkpoint accounting: the timer advances at each
// attribution site), so the bucket sum equals the measured wall time
// by construction.
enum class StallBucket : uint8_t {
  kLocalHit = 0,      // served from a warmed chunk / local bookkeeping
  kRemoteRpc = 1,     // synchronous kRead/kReadScatter/kReadSegment RPC
  kPfsWait = 2,       // direct PFS fallback I/O
  kBackpressure = 3,  // waiting on an in-flight read-ahead future
  kRetry = 4,         // failed attempts + channel recovery penalty
};

// One epoch's decomposition, as exported through metrics-frame section
// 12 and the HVAC_STATS_FILE dump. total_ns is the measured wall time;
// the five *_ns buckets partition it.
struct StallEpochRow {
  uint64_t epoch = 0;
  uint64_t reads = 0;
  uint64_t total_ns = 0;
  uint64_t local_hit_ns = 0;
  uint64_t remote_rpc_ns = 0;
  uint64_t pfs_wait_ns = 0;
  uint64_t backpressure_ns = 0;
  uint64_t retry_ns = 0;
};

// Process-wide per-epoch stall accounting, bumped by every HvacClient
// read and read by whatever assembles a metrics frame. Epoch
// boundaries come from the access-plan hook (PrefetchScheduler::
// set_plan calls begin_epoch); without a plan, reads fall into
// wall-clock buckets of kFallbackEpochNs so the decomposition still
// has a time axis. Only the last kEpochWindow epochs are retained;
// older slots are recycled in place.
struct StallCounters {
  static constexpr size_t kEpochWindow = 8;
  static constexpr uint64_t kFallbackEpochNs = 60ull * 1000 * 1000 * 1000;

  // Declares `id` the current epoch (access-plan hook). Resets the
  // ring slot it lands in if a previous epoch owned it.
  void begin_epoch(uint64_t id);

  // Charges `ns` of read wall time to `bucket` in the current epoch.
  void charge(StallBucket bucket, uint64_t ns);

  // Counts one completed top-level read in the current epoch.
  void on_read();

  // Rows with activity, ascending by epoch id.
  std::vector<StallEpochRow> snapshot() const;

  // Wall time measured around the LD_PRELOAD read entry points —
  // the independent total the bucket sums are validated against.
  std::atomic<uint64_t> shim_read_wall_ns{0};
  std::atomic<uint64_t> shim_reads{0};

  static StallCounters& global();

 private:
  struct Slot {
    std::atomic<uint64_t> epoch{0};
    std::atomic<uint64_t> used{0};  // 0 until an epoch claims the slot
    std::atomic<uint64_t> reads{0};
    std::atomic<uint64_t> total_ns{0};
    std::atomic<uint64_t> bucket_ns[5]{};
  };

  uint64_t current_epoch() const;
  Slot& slot_for(uint64_t epoch);

  std::array<Slot, kEpochWindow> slots_{};
  std::atomic<uint64_t> plan_epoch_{0};
  std::atomic<bool> plan_mode_{false};    // begin_epoch() seen
  mutable std::atomic<uint64_t> start_ns_{0};  // fallback-bucket origin
};

}  // namespace hvac::core
