// Fixed-size worker pool: the RPC server's handler pool. The reactor
// submits blocking (mover-bound) handlers here; workers run them in
// FIFO order and write their own responses.
//
// submit() never blocks: a full queue returns kCapacity and the caller
// sheds the request (the RPC server's backpressure contract).
#pragma once

#include <functional>
#include <thread>
#include <vector>

#include "common/mpmc_queue.h"

namespace hvac {

class ThreadPool {
 public:
  // `num_threads` workers; `queue_capacity` bounds the backlog.
  explicit ThreadPool(size_t num_threads, size_t queue_capacity = 1024);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Returns kCapacity when the queue is full, kCancelled after
  // shutdown.
  Status submit(std::function<void()> task);

  // Runs every queued task, then joins the workers. Idempotent.
  void shutdown();

 private:
  void worker_loop();

  MpmcQueue<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
};

}  // namespace hvac
