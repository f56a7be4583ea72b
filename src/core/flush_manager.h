// Async write-back flusher: drains dirty checkpoint files from the
// node-local store to the PFS.
//
// The write path acks at NVMe speed (the local store, its sizes in the
// journal); this is the background half that makes the PFS eventually
// hold the bytes, one copy per file, queued at close.
// Shapewise it is the data-mover's mirror image — a bounded FIFO of
// logical paths worked by a small thread pool — with the resilience
// posture of the RPC layer: flush attempts are gated by a circuit
// breaker (a flapping PFS is probed, not hammered) and retried with
// backoff. `submit` applies backpressure by blocking when the queue
// is full (shedding a flush would silently drop durability, which the
// mover's kCapacity shed can afford but this path cannot).
//
// Per-path bookkeeping guarantees: a path is never flushed by two
// workers at once; a write that lands while its path is mid-flush
// re-queues it (the flush may have copied a stale prefix); `wait`
// returns only when the path has no queued or in-flight flush — the
// `HVAC_WRITE_DURABILITY=pfs` fsync barrier.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "rpc/health.h"

namespace hvac::core {

class FlushManager {
 public:
  // Bound on queued paths; a full queue blocks submit.
  static constexpr size_t kQueueCapacity = 256;
  static constexpr size_t kThreads = 2;
  // Retry schedule per path: attempts beyond kMaxAttempts re-queue the
  // path at the back (durability is never dropped) and count a
  // failure. The backoff scales with the attempt, up to 8x.
  static constexpr int kMaxAttempts = 8;
  static constexpr int kRetryBackoffMs = 20;

  struct Options {
    rpc::BreakerOptions breaker = {};

    static Options from_env();
  };

  // Copies one dirty path out to the PFS (the server wires this to
  // PfsBackend::copy_in of the store's physical file). Must be safe
  // to call concurrently for different paths.
  using FlushFn = std::function<Status(const std::string& logical_path)>;
  // Called after a path is durably flushed and is no longer dirty
  // (journal kFlushed record, dirty-byte accounting).
  using DoneFn = std::function<void(const std::string& logical_path)>;

  FlushManager(Options options, FlushFn flush, DoneFn done);
  ~FlushManager();

  FlushManager(const FlushManager&) = delete;
  FlushManager& operator=(const FlushManager&) = delete;

  // Marks a path dirty. Idempotent while already queued; re-queues a
  // path that is mid-flight. Blocks while the queue is full
  // (backpressure); kCancelled after shutdown.
  Status submit(const std::string& logical_path);

  // Same, but never blocks on queue capacity. For DoneFn-context
  // resubmits (the callback runs on a flusher worker — blocking there
  // on space_cv_ with every worker doing the same would deadlock the
  // queue). May overshoot the capacity by at most one path per worker,
  // since a resubmit replaces the entry the worker just retired.
  Status resubmit(const std::string& logical_path);

  // Blocks until `logical_path` has no pending or in-flight flush
  // (kCancelled on shutdown). The pfs-durability fsync barrier.
  Status wait(const std::string& logical_path);

  // Blocks until every submitted path is flushed, or `timeout_ms`
  // elapses (0 = wait forever). kTimeout when dirty work remains —
  // the graceful-stop path logs and proceeds; the journal still
  // covers whatever did not drain.
  Status drain(int64_t timeout_ms = 0);

  // Stops workers. In-flight attempts finish; queued paths stay
  // dirty (the journal has them — a restart re-submits via replay).
  void shutdown();

  struct Stats {
    uint64_t flushed_files = 0;
    uint64_t retries = 0;
    uint64_t failures = 0;     // attempt budgets exhausted (re-queued)
    uint64_t queue_depth = 0;  // queued, not yet picked up
    uint64_t inflight = 0;
    // Age of the oldest dirty path (ms since first submit) — the
    // "flush lag" the metrics frame reports. 0 when clean.
    uint64_t oldest_dirty_ms = 0;
    uint8_t breaker_state = 0;  // rpc::EndpointHealth::State
  };
  Stats stats() const;

  bool idle() const;

 private:
  struct PathState {
    bool queued = false;
    bool inflight = false;
    bool dirtied_again = false;  // submit() landed mid-flight
    int64_t first_submit_ms = 0;
  };

  void worker_loop();
  // One path, retried until flushed or re-queued. Returns false when
  // shutting down.
  bool flush_one(const std::string& path);
  // Queues a path unconditionally; mutex_ must be held.
  void enqueue_locked(const std::string& logical_path);

  const FlushFn flush_;
  const DoneFn done_;
  rpc::EndpointHealth pfs_health_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // workers: queue non-empty / stop
  std::condition_variable space_cv_;  // submitters: queue has room
  std::condition_variable done_cv_;   // wait()/drain(): state changed
  std::deque<std::string> queue_;
  std::unordered_map<std::string, PathState> state_;
  bool stop_ = false;

  std::atomic<uint64_t> flushed_files_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> failures_{0};

  std::vector<std::thread> workers_;
};

}  // namespace hvac::core
