// The metrics schema: one table row per metrics-frame u64.
//
// The wire codec, merge and to_json (core/metrics_frame.cc),
// frame_delta (core/timeseries.cc), the OpenMetrics exporter
// (server/prom_exporter.cc) and `hvacctl` walk these tables instead of
// listing fields by hand; only HvacServer::metrics_frame(), which fills
// the structs from their sources, names the fields again.
//
// Table order is wire order: the v1 prefix words, then each section's
// words in section-id order. A new u64 in an existing section is one
// row after that section's last row (older decoders skip the tail).
//
// Row-shaped sections keep small tables of their row words. Their
// scope is fixed: reactor rows and per-op latency are per instance,
// stall rows and prefetch's paced_delay histogram per process.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/metrics_frame.h"

namespace hvac::core {

// Pseudo section id of the v1 prefix words; never sent as a section.
constexpr uint16_t kV1Prefix = 0;

enum class FieldKind : uint8_t {
  kCounter,   // monotonic: merge sums, frame_delta subtracts
  kGauge,     // point value: merge sums, frame_delta carries it
  kMaxGauge,  // point value: merge keeps the larger, frame_delta carries it
};

enum class FieldScope : uint8_t {
  kInstance,  // one value per HvacServer: co-resident instances sum
  kProcess,   // one value per process: co-resident instances repeat it,
              // so a same-process merge takes it once
};

struct FieldSpec {
  uint16_t section;  // wire section id, or kV1Prefix
  const char* group;  // JSON object holding it; "" = a top-level key
  const char* name;   // JSON key (and `hvacctl metrics` label)
  const char* prom;   // OpenMetrics family name
  FieldKind kind;
  FieldScope scope;
  const char* help;  // OpenMetrics HELP text
  uint64_t& (*ref)(MetricsFrame&);

  uint64_t get(const MetricsFrame& f) const {
    return ref(const_cast<MetricsFrame&>(f));
  }
};

// Every u64 field of the frame, in wire order.
std::span<const FieldSpec> frame_fields();

// kSectionReactors row words, in wire order: counters merged by index.
struct ReactorField {
  const char* name;  // JSON key
  const char* prom;  // family; one sample per reactor, label reactor="i"
  const char* help;
  uint64_t ReactorStats::PerReactor::* member;
};
std::span<const ReactorField> reactor_fields();

// kSectionStall row words, in wire order; rows are keyed by `epoch`.
struct StallField {
  const char* name;    // JSON key
  bool seconds;        // a nanosecond word, rendered in seconds
  const char* bucket;  // hvac_stall_seconds{bucket=...}; nullptr = none
  uint64_t StallEpochRow::* member;
};
std::span<const StallField> stall_fields();

// The OpenMetrics families rendered from the row-shaped sections.
constexpr const char* kStallReadsFamily = "hvac_stall_reads";
constexpr const char* kStallSecondsFamily = "hvac_stall_seconds";
constexpr const char* kOpLatencyFamily = "hvac_op_latency_seconds";

// Every family an OpenMetrics scrape carries, in exposition order:
// each frame_fields() row, each reactor_fields() row, then the stall
// and per-op latency families (`hvacctl metrics --families`).
std::vector<std::string> openmetrics_families();

}  // namespace hvac::core
