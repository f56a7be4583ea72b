#include "core/metrics_frame.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <string_view>

#include "core/metrics_schema.h"

namespace hvac::core {

using rpc::Bytes;
using rpc::WireReader;
using rpc::WireWriter;

namespace {

// [count u64][total_ns u64][n_buckets u16][bucket u64 * n]
void put_histogram(WireWriter& w, const LatencySnapshot& s) {
  w.put_u64(s.count);
  w.put_u64(s.total_ns);
  w.put_u16(static_cast<uint16_t>(kLatencyBuckets));
  for (uint64_t b : s.buckets) w.put_u64(b);
}

bool get_histogram(WireReader& r, LatencySnapshot* s) {
  auto count = r.get_u64();
  auto total = r.get_u64();
  auto n_buckets = r.get_u16();
  if (!count.ok() || !total.ok() || !n_buckets.ok()) return false;
  s->count = *count;
  s->total_ns = *total;
  for (uint16_t b = 0; b < *n_buckets; ++b) {
    auto v = r.get_u64();
    if (!v.ok()) return false;
    // A peer with more buckets folds its tail into our last bucket so
    // count stays consistent with the bucket sum.
    s->buckets[std::min<size_t>(b, kLatencyBuckets - 1)] += *v;
  }
  return true;
}

// Row sections: [u16 rows][u16 words per row] then the rows. A decoder
// keeps the words it knows and skips the tail of each row, so rows can
// grow without a new section.
template <typename Row, typename Field>
void put_rows(WireWriter& w, const std::vector<Row>& rows,
              std::span<const Field> fields) {
  w.put_u16(static_cast<uint16_t>(rows.size()));
  w.put_u16(static_cast<uint16_t>(fields.size()));
  for (const Row& row : rows) {
    for (const Field& field : fields) w.put_u64(row.*field.member);
  }
}

template <typename Row, typename Field>
void get_rows(WireReader& r, std::vector<Row>* out,
              std::span<const Field> fields) {
  auto count = r.get_u16();
  auto words = r.get_u16();
  if (!count.ok() || !words.ok() || *words == 0) return;
  for (uint16_t i = 0; i < *count; ++i) {
    Row row;
    for (uint16_t w = 0; w < *words; ++w) {
      auto v = r.get_u64();
      if (!v.ok()) return;
      if (w < fields.size()) row.*fields[w].member = *v;
    }
    out->push_back(row);
  }
}

// Section `id`'s table words, then its rows or histograms.
void put_section(WireWriter& s, const MetricsFrame& f, uint16_t id) {
  for (const FieldSpec& field : frame_fields()) {
    if (field.section == id) s.put_u64(field.get(f));
  }
  switch (id) {
    case kSectionLatency:
      s.put_u16(static_cast<uint16_t>(f.op_latency.size()));
      for (const auto& [op, snap] : f.op_latency) {
        s.put_u16(op);
        put_histogram(s, snap);
      }
      break;
    case kSectionReactors:
      put_rows(s, f.reactor.reactors, reactor_fields());
      break;
    case kSectionPrefetch:
      s.put_u64(0);  // reserved word
      put_histogram(s, f.prefetch.paced_delay);
      break;
    case kSectionStall:
      put_rows(s, f.stall.epochs, stall_fields());
      break;
  }
}

// Section bodies are decoded tolerantly: read the fields this build
// knows, stop at the section end, ignore any newer tail. A short body
// (older peer) leaves the remaining fields at zero.
void get_section(WireReader& s, MetricsFrame& f, uint16_t id) {
  for (const FieldSpec& field : frame_fields()) {
    if (field.section != id) continue;
    auto v = s.get_u64();
    if (!v.ok()) return;
    field.ref(f) = *v;
  }
  switch (id) {
    case kSectionLatency: {
      auto op_count = s.get_u16();
      if (!op_count.ok()) return;
      for (uint16_t i = 0; i < *op_count; ++i) {
        auto op = s.get_u16();
        LatencySnapshot snap;
        if (!op.ok() || !get_histogram(s, &snap)) return;
        f.op_latency[*op].merge(snap);
      }
      break;
    }
    case kSectionReactors:
      get_rows(s, &f.reactor.reactors, reactor_fields());
      break;
    case kSectionPrefetch:
      if (s.get_u64().ok()) get_histogram(s, &f.prefetch.paced_delay);
      break;
    case kSectionStall:
      get_rows(s, &f.stall.epochs, stall_fields());
      break;
  }
}

void put_histogram_json(std::ostringstream& o, const LatencySnapshot& s) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"count\":%" PRIu64 ",\"mean\":%.3f,\"p50\":%.3f,"
                "\"p99\":%.3f}",
                s.count, s.mean_ns() / 1e3, s.percentile_ns(50) / 1e3,
                s.percentile_ns(99) / 1e3);
  o << buf;
}

bool in_seconds(const ReactorField&) { return false; }
bool in_seconds(const StallField& field) { return field.seconds; }

template <typename Row, typename Field>
void put_rows_json(std::ostringstream& o, const char* key,
                   const std::vector<Row>& rows,
                   std::span<const Field> fields) {
  o << ",\"" << key << "\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    o << (i == 0 ? "{" : ",{");
    for (size_t w = 0; w < fields.size(); ++w) {
      o << (w == 0 ? "\"" : ",\"") << fields[w].name << "\":";
      const uint64_t v = rows[i].*fields[w].member;
      if (in_seconds(fields[w])) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6f", double(v) / 1e9);
        o << buf;
      } else {
        o << v;
      }
    }
    o << "}";
  }
  o << "]";
}

// Section `id`'s words as "group":{...} objects (top-level keys if "").
void put_section_json(std::ostringstream& o, const MetricsFrame& f,
                      uint16_t id) {
  std::string_view open;  // group of the object being written
  bool first = true;
  for (const FieldSpec& field : frame_fields()) {
    if (field.section != id) continue;
    if (field.group != open) {
      if (!open.empty()) o << "}";
      open = field.group;
      if (!open.empty()) o << ",\"" << open << "\":{";
      first = true;
    }
    o << (open.empty() || !first ? ",\"" : "\"") << field.name
      << "\":" << field.get(f);
    first = false;
    // Derived from two words; not on the wire.
    if (open == "cache" && std::string_view(field.name) == "misses") {
      o << ",\"hit_rate\":" << f.cache.hit_rate();
    }
  }
  if (id == kSectionPrefetch) {
    o << ",\"paced_delay_us\":";
    put_histogram_json(o, f.prefetch.paced_delay);
  }
  if (!open.empty()) o << "}";
}

}  // namespace

void MetricsFrame::merge(const MetricsFrame& other, Peers peers) {
  const bool same_process = peers == Peers::kSameProcess;
  version = std::max(version, other.version);
  for (const FieldSpec& field : frame_fields()) {
    if (same_process && field.scope == FieldScope::kProcess) continue;
    uint64_t& v = field.ref(*this);
    const uint64_t o = field.get(other);
    v = field.kind == FieldKind::kMaxGauge ? std::max(v, o) : v + o;
  }
  // Reactor rows and per-op latency are per instance. Reactor rows
  // merge by index: each instance reports one row, so a merged frame's
  // row 0 sums its instances.
  if (other.reactor.reactors.size() > reactor.reactors.size()) {
    reactor.reactors.resize(other.reactor.reactors.size());
  }
  for (size_t i = 0; i < other.reactor.reactors.size(); ++i) {
    for (const ReactorField& field : reactor_fields()) {
      reactor.reactors[i].*field.member +=
          other.reactor.reactors[i].*field.member;
    }
  }
  for (const auto& [op, snap] : other.op_latency) {
    op_latency[op].merge(snap);
  }
  // The paced-delay histogram and the stall rows are per process.
  if (same_process) return;
  prefetch.paced_delay.merge(other.prefetch.paced_delay);
  // Stall rows are keyed by epoch: same-epoch rows sum, new epochs
  // append.
  for (const StallEpochRow& oe : other.stall.epochs) {
    auto it = std::ranges::find(stall.epochs, oe.epoch, &StallEpochRow::epoch);
    if (it == stall.epochs.end()) {
      stall.epochs.push_back(oe);
      continue;
    }
    for (const StallField& field : stall_fields()) {
      if (field.member != &StallEpochRow::epoch) {
        (*it).*field.member += oe.*field.member;
      }
    }
  }
  std::ranges::sort(stall.epochs, {}, &StallEpochRow::epoch);
}

Bytes MetricsFrame::encode() const {
  WireWriter w;
  // v1 prefix: byte-identical to the legacy payload.
  for (const FieldSpec& field : frame_fields()) {
    if (field.section == kV1Prefix) w.put_u64(field.get(*this));
  }
  w.put_u32(kMetricsFrameMagic);
  w.put_u16(kFrameVersion);
  w.put_u16(kSectionStall);  // section count: ids 1..kSectionStall
  for (uint16_t id = 1; id <= kSectionStall; ++id) {
    WireWriter s;
    put_section(s, *this, id);
    w.put_u16(id);
    w.put_blob(s.bytes().data(), s.bytes().size());
  }
  return std::move(w).take();
}

Result<MetricsFrame> MetricsFrame::decode(const Bytes& bytes) {
  WireReader r(bytes);
  MetricsFrame f;
  for (const FieldSpec& field : frame_fields()) {
    if (field.section != kV1Prefix) continue;
    HVAC_ASSIGN_OR_RETURN(field.ref(f), r.get_u64());
  }

  // Anything past the prefix must announce itself; a missing or
  // foreign magic means a v1 peer (or one newer than the magic itself,
  // which a versioned magic would signal — cross that bridge then).
  f.version = 1;
  auto magic = r.get_u32();
  if (!magic.ok() || *magic != kMetricsFrameMagic) return f;
  auto version = r.get_u16();
  auto section_count = r.get_u16();
  if (!version.ok() || !section_count.ok()) return f;
  f.version = *version;

  for (uint16_t i = 0; i < *section_count; ++i) {
    auto id = r.get_u16();
    if (!id.ok()) break;
    auto body = r.get_blob_view();
    if (!body.ok()) break;
    // Unknown section ids match no row and no case: skipped by their
    // length prefix.
    if (*id == kV1Prefix) continue;
    WireReader s(body->data, body->size);
    get_section(s, f, *id);
  }
  return f;
}

std::string op_name(uint16_t opcode) {
  // Indexed by hvac::proto::Opcode; the frame is part of the protocol,
  // so these names are as stable as the opcode values themselves.
  static constexpr const char* kNames[] = {
      nullptr,       "ping",         "open",           "read",
      "close",       "stat",         "prefetch",       "metrics",
      "read_segment", "read_scatter", "prefetch_batch", "trace",
      "packed_index", "write_open",   "write",          "fsync",
      "write_close",  "time_series"};
  if (opcode < std::size(kNames) && kNames[opcode] != nullptr) {
    return kNames[opcode];
  }
  return "op" + std::to_string(opcode);
}

std::string MetricsFrame::to_json() const {
  std::ostringstream o;
  o << "{\"version\":" << version;
  // Sections in wire order, except that latency closes the object.
  for (uint16_t id = kV1Prefix; id <= kSectionStall; ++id) {
    if (id == kSectionReactors) {
      put_rows_json(o, "reactors", reactor.reactors, reactor_fields());
    } else if (id == kSectionStall) {
      put_rows_json(o, "stall", stall.epochs, stall_fields());
    } else if (id != kSectionLatency) {
      put_section_json(o, *this, id);
    }
  }
  o << ",\"latency_us\":{";
  for (auto it = op_latency.begin(); it != op_latency.end(); ++it) {
    o << (it == op_latency.begin() ? "\"" : ",\"") << op_name(it->first)
      << "\":";
    put_histogram_json(o, it->second);
  }
  o << "}}";
  return o.str();
}

std::string MetricsFrame::section_json(uint16_t id) const {
  std::ostringstream o;
  put_section_json(o, *this, id);
  return o.str();
}

}  // namespace hvac::core
