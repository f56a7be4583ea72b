#include "common/buffer_pool.h"

namespace hvac {

BufferPool::BufferPool(Options options) : options_(options) {
  if (options_.min_class_bytes == 0) options_.min_class_bytes = 1;
  for (size_t bytes = options_.min_class_bytes;
       bytes <= options_.max_class_bytes && bytes != 0; bytes <<= 1) {
    class_bytes_.push_back(bytes);
  }
  free_lists_.resize(class_bytes_.size());
}

size_t BufferPool::class_index(size_t size) const {
  if (options_.max_per_class == 0) return kNoClass;
  for (size_t i = 0; i < class_bytes_.size(); ++i) {
    if (class_bytes_[i] >= size) return i;
  }
  return kNoClass;
}

BufferPool::Lease BufferPool::acquire(size_t size) {
  const size_t cls = class_index(size);
  if (cls == kNoClass) {
    std::vector<uint8_t> buf(size);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.unpooled;
    }
    // pool_ == nullptr: the storage is freed, not recycled.
    return Lease(nullptr, std::move(buf), size);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& list = free_lists_[cls];
    if (!list.empty()) {
      std::vector<uint8_t> buf = std::move(list.back());
      list.pop_back();
      ++stats_.hits;
      return Lease(this, std::move(buf), size);
    }
    ++stats_.misses;
  }
  return Lease(this, std::vector<uint8_t>(class_bytes_[cls]), size);
}

void BufferPool::give_back(std::vector<uint8_t> buf) {
  std::lock_guard<std::mutex> lock(mutex_);
  // The buffer's capacity is exactly one class size (acquire allocated
  // it that way); anything else (or a full list) is dropped.
  for (size_t i = 0; i < class_bytes_.size(); ++i) {
    if (buf.size() == class_bytes_[i]) {
      if (free_lists_[i].size() < options_.max_per_class) {
        free_lists_[i].push_back(std::move(buf));
        ++stats_.recycled;
        return;
      }
      break;
    }
  }
  ++stats_.dropped;
}

void BufferPool::Lease::release() {
  // resize() only moves the logical size_; buf_ keeps its full class
  // allocation, so it can go straight back on the free list.
  if (pool_ != nullptr && !buf_.empty()) {
    pool_->give_back(std::move(buf_));
  }
  pool_ = nullptr;
  buf_.clear();
  size_ = 0;
  valid_ = false;
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

BufferPool& BufferPool::global() {
  static BufferPool* pool = new BufferPool();
  return *pool;
}

}  // namespace hvac
