// Clairvoyant epoch-aware prefetch scheduler (Dryden et al.,
// "Clairvoyant Prefetching for Distributed Machine Learning I/O").
//
// DL access order is KNOWN in advance: the seeded shuffle fixes the
// exact per-epoch sample sequence before the epoch starts. This
// scheduler turns that plan into a deadline-driven warm-up pipeline:
//
//   * The plan is the access order, so issuing in plan order IS
//     deadline order — sample k is needed strictly before sample k+1.
//   * A lookahead window keeps at most `depth` samples of prefetch
//     between the training cursor and the issue frontier. on_access()
//     (called from every intercepted open) advances the cursor and
//     slides the window.
//   * Batches ride the existing kPrefetchBatch RPC over the client's
//     multiplexed async channels; the server answers per-path
//     cached / miss / SHED. Shed paths re-enter the issue frontier
//     after a backoff (bounded per path), so mover backpressure
//     re-paces the pipeline instead of dropping warm-up or flooding
//     the bounded queue. An open circuit breaker reads as shed for
//     the whole sub-batch (fail-fast, retry after the backoff).
//   * A token bucket (HVAC_PREFETCH_BW_MBPS) meters issue rate so
//     cold-epoch warm-up cannot starve foreground reads or stampede
//     the PFS; every stall is recorded in the paced-delay histogram.
//
// Everything fails open: a dead server, a shed batch or a plan that
// does not match the access stream degrade to the demand-fetch path —
// the scheduler only ever warms caches ahead of time.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "storage/throttle.h"

namespace hvac::client {

class HvacClient;

struct PrefetchSchedulerOptions {
  // Lookahead window: samples the issue frontier may run ahead of the
  // training cursor (HVAC_PREFETCH_DEPTH).
  uint32_t depth = 256;
  // Samples per issued batch; clamped to proto::kMaxPrefetchBatch.
  uint32_t batch_size = 64;
  // Issue-rate pace in MB/s (decimal; HVAC_PREFETCH_BW_MBPS). Applied
  // against est_sample_bytes per planned sample. 0 = unpaced.
  double bw_mbps = 0.0;
  // SEED for the per-sample pacing estimate. The live estimate is an
  // EWMA of sizes measured on the client's own open paths (packed
  // index, open replies — all free, no extra round trip),
  // so pacing tracks the dataset's real sample size instead of
  // assuming 1 MiB forever.
  uint64_t est_sample_bytes = 1u << 20;
  // Backoff before shed paths re-enter the issue frontier.
  int shed_backoff_ms = 5;
  // Give up re-pacing a path after this many sheds (it will still be
  // demand-fetched on access).
  int max_shed_retries = 3;
};

class PrefetchScheduler {
 public:
  // `client` must outlive the scheduler (HvacClient owns it and stops
  // it before tearing down its channels).
  PrefetchScheduler(HvacClient* client, PrefetchSchedulerOptions options);
  ~PrefetchScheduler();

  PrefetchScheduler(const PrefetchScheduler&) = delete;
  PrefetchScheduler& operator=(const PrefetchScheduler&) = delete;

  // Installs the access plan for the coming epoch (logical paths in
  // access order), replacing any previous plan and resetting the
  // cursor. Duplicate paths are allowed (they occur at epoch
  // boundaries in wrap-padded partitions).
  void set_plan(std::vector<std::string> logical_paths);

  // Advances the training cursor: the application just opened/read
  // `logical_path`. Paths outside the plan are ignored. Accounting:
  // a sample whose prefetch completed in time counts hit-after-
  // prefetch; one still pending or in flight counts late.
  void on_access(const std::string& logical_path);

  // Feeds one measured sample size into the pacing EWMA
  // (alpha = 1/8, seeded from options.est_sample_bytes). Called from
  // the client's open paths, where the size is already known.
  void observe_sample_bytes(uint64_t bytes);

  // Stops the issue thread. Idempotent; called by ~PrefetchScheduler.
  void stop();

  // Blocks until the issue frontier has caught up with the current
  // window (nothing issuable remains) — tests and the warm-up phase
  // of benches use this to wait for a full-plan prefetch when
  // depth >= plan size.
  void wait_caught_up();

  struct Stats {
    uint64_t planned = 0;
    uint64_t issued = 0;
    uint64_t completed = 0;
    uint64_t shed = 0;
    uint64_t late = 0;
    uint64_t hit_after_prefetch = 0;
    uint64_t paced_delay_ns = 0;  // total token-bucket stall
    uint64_t cursor = 0;          // samples the app has consumed
    uint64_t est_sample_bytes = 0;  // live EWMA pacing estimate
  };
  Stats stats() const;

 private:
  enum class State : uint8_t {
    kPending,  // not issued yet (or re-queued after a shed)
    kIssued,   // in an in-flight batch
    kWarm,     // server answered cached
    kMiss,     // server answered miss, or shed-retry budget exhausted
  };

  struct Entry {
    std::string path;
    State state = State::kPending;
    uint8_t shed_count = 0;
  };

  void run();
  // Next plan index the issue loop may pick up, honoring the window
  // bound; plan_.size() when nothing is issuable. Caller holds mutex_.
  size_t next_issuable_locked() const;

  HvacClient* client_;
  PrefetchSchedulerOptions options_;
  std::unique_ptr<storage::TokenBucket> bucket_;  // null when unpaced
  // Live per-sample size estimate (EWMA of measured opens). The token
  // bucket itself is immutable; the estimate scales how many tokens a
  // batch acquires.
  std::atomic<uint64_t> est_sample_bytes_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;          // wakes the issue loop
  std::condition_variable caught_up_cv_;
  std::vector<Entry> plan_;
  // path -> plan indices not yet consumed by on_access (FIFO per path).
  std::unordered_map<std::string, std::deque<size_t>> occurrences_;
  size_t cursor_ = 0;     // first plan index the app has not accessed
  size_t issue_pos_ = 0;  // first plan index the issue loop has not
                          // inspected (rewinds to re-pace sheds)
  bool issuing_ = false;  // a batch is in flight right now
  bool stop_ = false;
  uint64_t epoch_ = 0;    // bumped by set_plan; stale batches discard

  Stats stats_;
  std::thread thread_;
};

}  // namespace hvac::client
