// DataMover — the per-server-instance data movers of §III-C.
//
// "Every HVAC server instance spawns a dedicated data-mover thread,
//  which manages a shared FIFO queue to track and manage the forwarded
//  file I/O operations."
//
// RPC handlers enqueue fetch tasks; the movers drain them in FIFO
// order and run CacheManager::ensure_cached. Callers wait on a
// per-task future, so many handler threads can be parked on one
// in-flight copy without tying up a mover. The default of
// kDefaultMovers = 4 threads models the paper's headline HVAC(4×1)
// copy concurrency (Fig. 9b/11): four fetches overlap their PFS
// metadata round trips and transfers instead of queueing behind one.
//
// Duplicate-fetch suppression: concurrent submits for the SAME path
// coalesce onto one queued task — later submitters get the same
// shared future instead of a second queue slot, so N ranks warming a
// shared dataset cost one PFS read per sample and one queue entry
// (the clairvoyant-prefetch stampede case). The coalesced result —
// success or error — is delivered to every waiter exactly once via
// the shared state; the in-flight entry is retired before the result
// is published so a submit that races completion starts a fresh
// fetch rather than piggybacking a stale answer.
#pragma once

#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/mpmc_queue.h"
#include "common/result.h"
#include "common/trace.h"
#include "core/cache_manager.h"

namespace hvac::core {

class DataMover {
 public:
  // HVAC(4×1): four movers per server instance.
  static constexpr size_t kDefaultMovers = 4;

  // `movers` parallel threads drain the same FIFO queue — this models
  // the HVAC(i×1) variants where i instances widen the copy path.
  DataMover(CacheManager* cache, size_t movers = kDefaultMovers,
            size_t queue_capacity = 4096);
  ~DataMover();

  DataMover(const DataMover&) = delete;
  DataMover& operator=(const DataMover&) = delete;

  // Enqueues a fetch; the future resolves to ensure_cached's result
  // (true = cached, false = PFS fallback). A submit for a path that
  // already has a queued or running fetch piggybacks on it (shared
  // future, no second queue slot).
  std::shared_future<Result<bool>> submit(std::string logical_path);

  // Convenience: submit and wait.
  Result<bool> fetch(const std::string& logical_path);

  // Stops accepting work, drains the queue and joins. Idempotent.
  void shutdown();

  size_t queue_depth() const { return queue_.size(); }

  // Submits that coalesced onto an in-flight fetch instead of
  // enqueueing their own (the dedup win: each one is a PFS read and a
  // queue slot that never happened).
  uint64_t dedup_coalesced() const {
    return dedup_coalesced_.load(std::memory_order_relaxed);
  }

  // Paths with a queued-or-running fetch right now (gauge).
  size_t dedup_inflight() const;

 private:
  // Shared completion state for one coalesced fetch. The promise is
  // resolved exactly once by the mover thread; every waiter holds a
  // copy of `fut`.
  struct Inflight {
    std::promise<Result<bool>> done;
    std::shared_future<Result<bool>> fut;
    uint32_t waiters = 0;          // submits beyond the first
    uint64_t first_wait_ns = 0;    // earliest coalesced submit (trace)
  };

  struct Task {
    std::string logical_path;
    std::shared_ptr<Inflight> inflight;
    // Submitter's trace context + enqueue time: the mover thread
    // adopts the context and reports the FIFO wait as its own span.
    trace::TraceContext ctx;
    uint64_t enqueue_ns = 0;
  };

  void mover_loop();

  CacheManager* cache_;
  MpmcQueue<std::unique_ptr<Task>> queue_;
  std::vector<std::thread> threads_;

  mutable std::mutex inflight_mutex_;
  std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight_;
  std::atomic<uint64_t> dedup_coalesced_{0};
};

}  // namespace hvac::core
