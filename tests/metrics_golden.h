// A metrics frame in which every field holds a value of its own: two
// reactors, two stall epochs, two ops and a non-empty paced_delay
// histogram. The wire, JSON, delta and OpenMetrics goldens are built
// from it, so a field that moves, drops out or swaps with a neighbour
// changes a golden.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/metrics_frame.h"
#include "core/metrics_schema.h"
#include "rpc/wire.h"
#include "server/hvac_proto.h"

namespace hvac::golden {

// Values run base+step, base+2*step, ... in fill order; two frames
// built with different (base, step) pairs differ in every field.
class Counter {
 public:
  Counter(uint64_t base, uint64_t step) : v_(base), step_(step) {}
  uint64_t operator()() { return v_ += step_; }

 private:
  uint64_t v_;
  uint64_t step_;
};

// Every bucket non-zero; count is the bucket sum, as a live histogram's.
inline core::LatencySnapshot histogram(Counter& n) {
  core::LatencySnapshot s;
  for (uint64_t& b : s.buckets) {
    b = n();
    s.count += b;
  }
  s.total_ns = n();
  return s;
}

inline core::MetricsFrame frame(uint64_t base = 0, uint64_t step = 1) {
  Counter n(base, step);
  core::MetricsFrame f;
  f.cache.hits = n();
  f.cache.misses = n();
  f.cache.dedup_waits = n();
  f.cache.evictions = n();
  f.cache.bytes_from_cache = n();
  f.cache.bytes_from_pfs = n();
  f.cache.pfs_fallbacks = n();
  f.open_fds = n();
  f.handle_cache = {n(), n(), n(), n(), n(), n()};
  f.buffer_pool = {n(), n(), n(), n(), n()};
  f.readahead = {n(), n(), n()};
  f.resilience = {n(), n(), n(), n(), n(), n(), n(), n(), n(), n(), n()};
  // Words deleted from the schema still draw their number, so the
  // words after them keep their golden values.
  f.zerocopy.sendfile_sends = n();
  n();  // splice_sends
  n();  // fallback_sends
  f.zerocopy.sendfile_bytes = n();
  n();  // splice_bytes
  f.zerocopy.short_resumes = n();
  for (int i = 0; i < 4; ++i) n();  // the retired section 7's words
  f.trace = {n(), n(), n(), n(), n()};
  f.reactor.reactors = {{n(), n(), n(), n(), n()}, {n(), n(), n(), n(), n()}};
  f.write_back = {n(), n(), n(), n(), n(), n(), n(), n(), n(), n(),
                  n(), n(), n(), n(), n(), n(), n(), n(), n()};
  f.prefetch.planned = n();
  f.prefetch.issued = n();
  f.prefetch.completed = n();
  f.prefetch.shed = n();
  f.prefetch.late = n();
  f.prefetch.hit_after_prefetch = n();
  f.prefetch.deduped = n();
  f.prefetch.dedup_inflight = n();
  f.prefetch.paced_delay = histogram(n);
  f.stall.epochs = {{n(), n(), n(), n(), n(), n(), n(), n()},
                    {n(), n(), n(), n(), n(), n(), n(), n()}};
  f.op_latency[proto::kOpen] = histogram(n);
  f.op_latency[proto::kRead] = histogram(n);
  // Words appended to the schema after the goldens were first taken
  // draw last, so the earlier words keep their golden values.
  for (auto& row : f.reactor.reactors) row.local_conns = n();
  f.zerocopy.fd_passes = n();
  f.zerocopy.fd_pass_bytes = n();
  f.write_back.local_write_bytes = n();
  return f;
}

// The delta pair: `prev` lacks one reactor row and one op, and its
// larger step makes the later counters run backwards (clamped to zero).
inline core::MetricsFrame delta_cur() { return frame(1000, 7); }
inline core::MetricsFrame delta_prev() {
  core::MetricsFrame f = frame(0, 13);
  f.reactor.reactors.pop_back();
  f.op_latency.erase(proto::kOpen);
  return f;
}

// What a decoder may make of a cut-short or damaged copy of `want`:
// every word is want's or zero, every row and op want's or absent.
inline void expect_golden_or_zero(const core::MetricsFrame& got,
                                  const core::MetricsFrame& want) {
  auto golden_or_zero = [](uint64_t got, uint64_t want) {
    return got == 0 || got == want;
  };
  for (const core::FieldSpec& field : core::frame_fields()) {
    EXPECT_TRUE(golden_or_zero(field.get(got), field.get(want)))
        << field.group << "." << field.name << " = " << field.get(got);
  }
  ASSERT_LE(got.reactor.reactors.size(), want.reactor.reactors.size());
  for (size_t i = 0; i < got.reactor.reactors.size(); ++i) {
    for (const core::ReactorField& field : core::reactor_fields()) {
      EXPECT_EQ(got.reactor.reactors[i].*field.member,
                want.reactor.reactors[i].*field.member)
          << "reactor " << i << " " << field.name;
    }
  }
  ASSERT_LE(got.stall.epochs.size(), want.stall.epochs.size());
  for (size_t i = 0; i < got.stall.epochs.size(); ++i) {
    for (const core::StallField& field : core::stall_fields()) {
      EXPECT_EQ(got.stall.epochs[i].*field.member,
                want.stall.epochs[i].*field.member)
          << "stall " << i << " " << field.name;
    }
  }
  for (const auto& [op, snap] : got.op_latency) {
    ASSERT_EQ(want.op_latency.count(op), 1u) << "op " << op;
    const core::LatencySnapshot& w = want.op_latency.at(op);
    EXPECT_EQ(snap.count, w.count);
    EXPECT_EQ(snap.total_ns, w.total_ns);
    EXPECT_EQ(snap.buckets, w.buckets);
  }
  const core::LatencySnapshot& paced = got.prefetch.paced_delay;
  const core::LatencySnapshot& want_paced = want.prefetch.paced_delay;
  EXPECT_TRUE(golden_or_zero(paced.count, want_paced.count));
  EXPECT_TRUE(golden_or_zero(paced.total_ns, want_paced.total_ns));
  for (size_t b = 0; b < core::kLatencyBuckets; ++b) {
    EXPECT_TRUE(golden_or_zero(paced.buckets[b], want_paced.buckets[b]))
        << "paced_delay bucket " << b;
  }
}

inline std::string hex(const rpc::Bytes& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

}  // namespace hvac::golden
