#include "core/timeseries.h"

#include "core/metrics_schema.h"

namespace hvac::core {

using rpc::Bytes;
using rpc::WireReader;
using rpc::WireWriter;

namespace {

// Counter difference: clamped at zero so a peer that restarted (or a
// section that was zeroed) shows a flat interval instead of a huge
// negative spike.
uint64_t monus(uint64_t cur, uint64_t prev) {
  return cur >= prev ? cur - prev : 0;
}

LatencySnapshot snap_delta(const LatencySnapshot& cur,
                           const LatencySnapshot& prev) {
  LatencySnapshot d;
  d.count = monus(cur.count, prev.count);
  d.total_ns = monus(cur.total_ns, prev.total_ns);
  for (size_t i = 0; i < kLatencyBuckets; ++i) {
    d.buckets[i] = monus(cur.buckets[i], prev.buckets[i]);
  }
  return d;
}

}  // namespace

MetricsFrame frame_delta(const MetricsFrame& cur, const MetricsFrame& prev) {
  // Gauges, the version and the per-epoch cumulative stall rows carry
  // cur's values (a history reader diffs same-epoch rows itself if it
  // wants within-epoch rates); counters subtract.
  MetricsFrame d = cur;
  for (const FieldSpec& field : frame_fields()) {
    if (field.kind == FieldKind::kCounter) {
      field.ref(d) = monus(field.get(cur), field.get(prev));
    }
  }
  for (size_t i = 0; i < d.reactor.reactors.size(); ++i) {
    ReactorStats::PerReactor p;  // zero row when prev had fewer reactors
    if (i < prev.reactor.reactors.size()) p = prev.reactor.reactors[i];
    for (const ReactorField& field : reactor_fields()) {
      d.reactor.reactors[i].*field.member =
          monus(cur.reactor.reactors[i].*field.member, p.*field.member);
    }
  }
  d.prefetch.paced_delay =
      snap_delta(cur.prefetch.paced_delay, prev.prefetch.paced_delay);
  for (auto& [op, snap] : d.op_latency) {
    auto it = prev.op_latency.find(op);
    if (it != prev.op_latency.end()) snap = snap_delta(snap, it->second);
  }
  return d;
}

TimeSeriesRing::TimeSeriesRing(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void TimeSeriesRing::push(TimeSeriesSample sample) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() == capacity_) ring_.pop_front();
  ring_.push_back(std::move(sample));
  ++total_;
}

std::vector<TimeSeriesSample> TimeSeriesRing::samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

size_t TimeSeriesRing::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

uint64_t TimeSeriesRing::total_pushed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

rpc::Bytes TimeSeriesRing::encode(uint32_t interval_ms) const {
  std::vector<TimeSeriesSample> snap;
  uint64_t total = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snap.assign(ring_.begin(), ring_.end());
    total = total_;
  }
  WireWriter w;
  w.put_u32(kTimeSeriesMagic);
  w.put_u16(kTimeSeriesVersion);
  w.put_u32(interval_ms);
  w.put_u32(static_cast<uint32_t>(capacity_));
  w.put_u64(total);
  w.put_u16(static_cast<uint16_t>(snap.size()));
  for (const TimeSeriesSample& s : snap) {
    WireWriter body;
    body.put_u64(s.t_ms);
    body.put_u32(s.interval_ms);
    const Bytes frame = s.delta.encode();
    body.put_blob(frame.data(), frame.size());
    w.put_blob(body.bytes().data(), body.bytes().size());
  }
  return std::move(w).take();
}

Result<TimeSeriesFrame> TimeSeriesFrame::decode(const rpc::Bytes& bytes) {
  WireReader r(bytes);
  TimeSeriesFrame f;
  HVAC_ASSIGN_OR_RETURN(const uint32_t magic, r.get_u32());
  if (magic != kTimeSeriesMagic) {
    return Error(ErrorCode::kProtocol, "not a time-series frame");
  }
  HVAC_ASSIGN_OR_RETURN(f.version, r.get_u16());
  HVAC_ASSIGN_OR_RETURN(f.interval_ms, r.get_u32());
  HVAC_ASSIGN_OR_RETURN(f.window, r.get_u32());
  HVAC_ASSIGN_OR_RETURN(f.total, r.get_u64());
  HVAC_ASSIGN_OR_RETURN(const uint16_t count, r.get_u16());
  for (uint16_t i = 0; i < count; ++i) {
    auto body = r.get_blob_view();
    if (!body.ok()) break;  // truncated tail: keep what decoded
    WireReader b(body->data, body->size);
    TimeSeriesSample s;
    auto t_ms = b.get_u64();
    auto interval = b.get_u32();
    auto frame = b.get_blob_view();
    if (!t_ms.ok() || !interval.ok() || !frame.ok()) continue;
    s.t_ms = *t_ms;
    s.interval_ms = *interval;
    rpc::Bytes frame_bytes(frame->data, frame->data + frame->size);
    auto decoded = MetricsFrame::decode(frame_bytes);
    if (!decoded.ok()) continue;
    s.delta = std::move(*decoded);
    // Any sample-body tail past the frame blob belongs to a newer
    // writer; the outer length prefix already skipped it.
    f.samples.push_back(std::move(s));
  }
  return f;
}

}  // namespace hvac::core
