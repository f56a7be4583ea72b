// Time-series metrics history — the ring behind proto::kTimeSeries.
//
// A collector thread in each HvacServer snapshots the live metrics
// frame every HVAC_TS_INTERVAL_MS and pushes the *per-interval delta*
// (counters subtracted, gauges carried as point values, histograms
// differenced bucket-wise) into a fixed-capacity ring of
// kTimeSeriesWindow samples. `hvacctl top` and anything else that wants
// rates reads the ring over kTimeSeries instead of diffing frames
// caller-side.
//
// Wire format (versioned, skip-unknown like the metrics frame):
//
//   u32 magic    'HVTS'
//   u16 version  kTimeSeriesVersion
//   u32 interval_ms   configured collector cadence (0 = collector off)
//   u32 window        ring capacity in samples
//   u64 total         samples pushed since start (wrap detector)
//   u16 count         samples that follow, oldest first
//   samples      [u32 byte_len][byte_len bytes] ...
//
// Each sample body is [u64 t_ms][u32 interval_ms][blob frame] where
// `frame` is a full MetricsFrame::encode() of the delta — so every
// compatibility property of the metrics frame (unknown sections
// skipped, short bodies tolerated) carries over to history samples,
// and the outer length prefix lets a decoder skip sample-body fields
// it does not know.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "core/metrics_frame.h"
#include "rpc/wire.h"

namespace hvac::core {

constexpr uint32_t kTimeSeriesMagic = 0x53545648;  // "HVTS"
constexpr uint16_t kTimeSeriesVersion = 1;

// One collector tick: the delta frame plus when and over how long it
// was measured. t_ms is CLOCK_MONOTONIC-domain milliseconds (same
// clock for every sample of one server; not comparable across hosts).
struct TimeSeriesSample {
  uint64_t t_ms = 0;
  uint32_t interval_ms = 0;  // measured, not configured
  MetricsFrame delta;
};

// Decoded kTimeSeries payload.
struct TimeSeriesFrame {
  uint16_t version = kTimeSeriesVersion;
  uint32_t interval_ms = 0;  // configured cadence, 0 = collector off
  uint32_t window = 0;
  uint64_t total = 0;  // pushes since server start
  std::vector<TimeSeriesSample> samples;  // oldest first

  static Result<TimeSeriesFrame> decode(const rpc::Bytes& bytes);
};

// `cur - prev` by each field's kind (core/metrics_schema.h): counters
// and histogram buckets subtract (clamped at zero so a restarted peer
// never yields negative rates), gauges and the per-epoch cumulative
// stall rows carry cur's values.
MetricsFrame frame_delta(const MetricsFrame& cur, const MetricsFrame& prev);

// Fixed-capacity sample history. push() overwrites the oldest sample
// once `capacity` is reached; readers always see the most recent
// min(total_pushed, capacity) samples in push order.
class TimeSeriesRing {
 public:
  explicit TimeSeriesRing(size_t capacity);

  void push(TimeSeriesSample sample);
  std::vector<TimeSeriesSample> samples() const;  // oldest first
  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t total_pushed() const;

  // Full kTimeSeries payload; `interval_ms` is the configured cadence
  // advertised in the header.
  rpc::Bytes encode(uint32_t interval_ms) const;

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<TimeSeriesSample> ring_;
  uint64_t total_ = 0;
};

}  // namespace hvac::core
