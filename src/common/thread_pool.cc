#include "common/thread_pool.h"

namespace hvac {

ThreadPool::ThreadPool(size_t num_threads, size_t queue_capacity)
    : tasks_(queue_capacity) {
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

Status ThreadPool::submit(std::function<void()> task) {
  return tasks_.try_push(std::move(task));
}

void ThreadPool::shutdown() {
  tasks_.close();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    Result<std::function<void()>> task = tasks_.pop();
    if (!task.ok()) return;  // closed and drained
    (*task)();
  }
}

}  // namespace hvac
