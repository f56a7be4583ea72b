// Size-classed buffer pool for the read hot path.
//
// Every cached read used to heap-allocate (and free) a payload buffer
// per RPC; at DL-training request rates that is an allocator round
// trip per sample. The pool keeps a bounded free list of reusable
// buffers per power-of-two size class and hands them out through an
// RAII Lease, so the server read handler and the client receive path
// recycle the same few buffers instead of churning the allocator
// (DESIGN.md "Read hot path").
#pragma once

#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace hvac {

struct BufferPoolOptions {
  // Buffers kept per size class; 0 disables pooling entirely.
  size_t max_per_class = 64;
  // Smallest / largest pooled class (powers of two in between).
  // Requests above max_class_bytes are served unpooled.
  size_t min_class_bytes = 4096;      // 4 KiB
  size_t max_class_bytes = 8u << 20;  // 8 MiB
};

class BufferPool {
 public:
  using Options = BufferPoolOptions;

  struct Stats {
    uint64_t hits = 0;      // acquire served from a free list
    uint64_t misses = 0;    // acquire had to allocate
    uint64_t unpooled = 0;  // acquire above max class (or pool off)
    uint64_t recycled = 0;  // lease returned to a free list
    uint64_t dropped = 0;   // lease freed (free list full)
  };

  // RAII lease over one buffer. The logical size() can be shrunk below
  // the class capacity (short reads); the backing storage returns to
  // the pool when the lease is destroyed.
  class Lease {
   public:
    Lease() = default;
    ~Lease() { release(); }

    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease(Lease&& other) noexcept
        : pool_(std::exchange(other.pool_, nullptr)),
          buf_(std::move(other.buf_)),
          size_(std::exchange(other.size_, 0)),
          valid_(std::exchange(other.valid_, false)) {}
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        pool_ = std::exchange(other.pool_, nullptr);
        buf_ = std::move(other.buf_);
        size_ = std::exchange(other.size_, 0);
        valid_ = std::exchange(other.valid_, false);
      }
      return *this;
    }

    uint8_t* data() { return buf_.data(); }
    const uint8_t* data() const { return buf_.data(); }
    size_t size() const { return size_; }
    size_t capacity() const { return buf_.size(); }
    bool valid() const { return valid_; }

    // Shrinks the logical size (e.g. after a short read). Never grows
    // past the class capacity.
    void resize(size_t n) { size_ = n < buf_.size() ? n : buf_.size(); }

    // Hands the backing storage to the caller as a plain vector; the
    // buffer does NOT return to the pool (legacy Bytes-shaped paths).
    std::vector<uint8_t> detach() {
      pool_ = nullptr;
      valid_ = false;
      std::vector<uint8_t> out = std::move(buf_);
      out.resize(std::exchange(size_, 0));
      return out;
    }

   private:
    friend class BufferPool;
    Lease(BufferPool* pool, std::vector<uint8_t> buf, size_t size)
        : pool_(pool), buf_(std::move(buf)), size_(size), valid_(true) {}

    void release();

    BufferPool* pool_ = nullptr;  // null: unpooled, plain free
    std::vector<uint8_t> buf_;    // capacity == class size
    size_t size_ = 0;
    bool valid_ = false;
  };

  explicit BufferPool(Options options = {});

  // Acquires a buffer with capacity >= `size` and logical size `size`.
  Lease acquire(size_t size);

  Stats stats() const;

  // Process-wide pool shared by the RPC server/client hot paths, with
  // the default Options (64 buffers per class).
  static BufferPool& global();

 private:
  friend class Lease;

  // Index of the smallest class with capacity >= size, or npos when
  // the request must go unpooled.
  static constexpr size_t kNoClass = static_cast<size_t>(-1);
  size_t class_index(size_t size) const;

  void give_back(std::vector<uint8_t> buf);

  Options options_;
  std::vector<size_t> class_bytes_;  // ascending class capacities
  mutable std::mutex mutex_;
  std::vector<std::vector<std::vector<uint8_t>>> free_lists_;
  Stats stats_;
};

}  // namespace hvac
