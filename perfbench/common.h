// Helpers shared by the benchmark driver and its reader: the byte hash
// both sides check samples with, and the deterministic contents of a
// checkpoint shard (the reader writes them, the driver re-derives them
// to byte-compare what landed on the PFS).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <ctime>

namespace perfbench {

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

inline uint64_t fnv1a(const uint8_t* data, size_t size, uint64_t h) {
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Shard `key` is a pure function of (key, byte offset).
inline void fill_shard(uint64_t key, uint8_t* buf, size_t size) {
  uint64_t state = splitmix64(key);
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    state = splitmix64(state);
    std::memcpy(buf + i, &state, 8);
  }
  state = splitmix64(state);
  for (; i < size; ++i) buf[i] = static_cast<uint8_t>(state >> (8 * (i % 8)));
}

inline uint64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace perfbench
