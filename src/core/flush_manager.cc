#include "core/flush_manager.h"

#include <algorithm>
#include <chrono>

#include "common/log.h"
#include "common/trace.h"

namespace hvac::core {

namespace {
constexpr int64_t kBreakerPollMs = 20;
}  // namespace

FlushManager::Options FlushManager::Options::from_env() {
  return Options{rpc::BreakerOptions::from_env()};
}

FlushManager::FlushManager(Options options, FlushFn flush, DoneFn done)
    : flush_(std::move(flush)),
      done_(std::move(done)),
      pfs_health_("pfs", options.breaker) {
  workers_.reserve(kThreads);
  for (size_t i = 0; i < kThreads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

FlushManager::~FlushManager() { shutdown(); }

Status FlushManager::submit(const std::string& logical_path) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (stop_) {
      return Error(ErrorCode::kCancelled, "flush manager stopped");
    }
    auto it = state_.find(logical_path);
    if (it != state_.end()) {
      if (it->second.queued) return Status::Ok();  // already pending
      if (it->second.inflight) {
        // The in-flight copy may predate the bytes just written;
        // flush again once it lands.
        it->second.dirtied_again = true;
        return Status::Ok();
      }
    }
    if (queue_.size() < kQueueCapacity) break;
    space_cv_.wait(lock);  // backpressure: never shed a dirty path
  }
  enqueue_locked(logical_path);
  return Status::Ok();
}

Status FlushManager::resubmit(const std::string& logical_path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stop_) {
    return Error(ErrorCode::kCancelled, "flush manager stopped");
  }
  auto it = state_.find(logical_path);
  if (it != state_.end()) {
    if (it->second.queued) return Status::Ok();
    if (it->second.inflight) {
      it->second.dirtied_again = true;
      return Status::Ok();
    }
  }
  enqueue_locked(logical_path);
  return Status::Ok();
}

void FlushManager::enqueue_locked(const std::string& logical_path) {
  PathState& st = state_[logical_path];
  st.queued = true;
  if (st.first_submit_ms == 0) st.first_submit_ms = rpc::steady_now_ms();
  queue_.push_back(logical_path);
  work_cv_.notify_one();
}

Status FlushManager::wait(const std::string& logical_path) {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] {
    return stop_ || state_.find(logical_path) == state_.end();
  });
  if (state_.find(logical_path) == state_.end()) return Status::Ok();
  return Error(ErrorCode::kCancelled, "flush manager stopped");
}

Status FlushManager::drain(int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto clean = [&] { return stop_ || state_.empty(); };
  if (timeout_ms <= 0) {
    done_cv_.wait(lock, clean);
  } else if (!done_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                                clean)) {
    return Error(ErrorCode::kTimeout,
                 "flush drain: " + std::to_string(state_.size()) +
                     " dirty path(s) remain");
  }
  if (state_.empty()) return Status::Ok();
  return Error(ErrorCode::kCancelled, "flush manager stopped");
}

void FlushManager::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) {
      // Already stopped; workers may still be joining below.
    }
    stop_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  done_cv_.notify_all();
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

void FlushManager::worker_loop() {
  for (;;) {
    std::string path;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      path = std::move(queue_.front());
      queue_.pop_front();
      auto& st = state_[path];
      st.queued = false;
      st.inflight = true;
      space_cv_.notify_one();
    }
    if (!flush_one(path)) return;  // shutdown mid-flush
  }
}

bool FlushManager::flush_one(const std::string& path) {
  int attempts = 0;
  bool flushed = false;
  bool gone = false;  // source vanished: nothing left to flush
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stop_) break;
    }
    if (!pfs_health_.allow_request()) {
      // Circuit open: the PFS is down — sleep a beat instead of
      // spinning; the breaker decides when the next probe goes out.
      std::this_thread::sleep_for(std::chrono::milliseconds(kBreakerPollMs));
      continue;
    }
    trace::Span span("flush.pfs", static_cast<uint64_t>(attempts));
    const Status s = flush_(path);
    if (s.ok()) {
      pfs_health_.record_success();
      flushed = true;
      break;
    }
    if (s.error().code == ErrorCode::kNotFound) {
      // The local copy was evicted/purged under us. Whatever dirty
      // bytes existed are unrecoverable from here; count a failure
      // and drop the path rather than spinning forever.
      failures_.fetch_add(1, std::memory_order_relaxed);
      HVAC_LOG_WARN("flush: local copy of " << path
                                            << " vanished: "
                                            << s.error().to_string());
      gone = true;
      break;
    }
    pfs_health_.record_failure();
    retries_.fetch_add(1, std::memory_order_relaxed);
    ++attempts;
    if (attempts >= kMaxAttempts) {
      // Budget exhausted: go to the back of the line (never drop
      // dirty data) and let other paths make progress.
      failures_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mutex_);
      auto& st = state_[path];
      st.inflight = false;
      st.dirtied_again = false;
      st.queued = true;
      queue_.push_back(path);
      work_cv_.notify_one();
      return !stop_;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(
        kRetryBackoffMs * std::min(attempts, 8)));
  }

  std::unique_lock<std::mutex> lock(mutex_);
  auto it = state_.find(path);
  if (it == state_.end()) return !stop_;  // defensive
  it->second.inflight = false;
  if (flushed && it->second.dirtied_again) {
    // New bytes landed while we copied: the flush we just did may be
    // stale. Keep the path dirty and go again.
    it->second.dirtied_again = false;
    it->second.queued = true;
    it->second.first_submit_ms = rpc::steady_now_ms();
    queue_.push_back(path);
    work_cv_.notify_one();
    return !stop_;
  }
  state_.erase(it);
  done_cv_.notify_all();
  const bool keep_running = !stop_;
  lock.unlock();
  if (flushed) {
    flushed_files_.fetch_add(1, std::memory_order_relaxed);
    if (done_) done_(path);
  }
  (void)gone;
  return keep_running;
}

FlushManager::Stats FlushManager::stats() const {
  Stats s;
  s.flushed_files = flushed_files_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.failures = failures_.load(std::memory_order_relaxed);
  const int64_t now = rpc::steady_now_ms();
  std::lock_guard<std::mutex> lock(mutex_);
  s.queue_depth = queue_.size();
  int64_t oldest = 0;
  for (const auto& [path, st] : state_) {
    if (st.inflight) ++s.inflight;
    if (st.first_submit_ms != 0 &&
        (oldest == 0 || st.first_submit_ms < oldest)) {
      oldest = st.first_submit_ms;
    }
  }
  if (oldest != 0 && now > oldest) {
    s.oldest_dirty_ms = static_cast<uint64_t>(now - oldest);
  }
  s.breaker_state = static_cast<uint8_t>(pfs_health_.state());
  return s;
}

bool FlushManager::idle() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_.empty();
}

}  // namespace hvac::core
