// hvacctl — tiny operator CLI for a running HVAC allocation.
//
//   hvacctl [--timeout MS] ping    HOST:PORT[,HOST:PORT...]
//   hvacctl [--timeout MS] health  HOST:PORT[,HOST:PORT...] [--json]
//   hvacctl [--timeout MS] metrics HOST:PORT[,HOST:PORT...] [--json]
//                                  [--watch N]
//   hvacctl metrics --families
//   hvacctl [--timeout MS] stat    HOST:PORT <relative-path>
//   hvacctl [--timeout MS] warm    HOST:PORT <relative-path>
//   hvacctl [--timeout MS] trace   HOST:PORT[,HOST:PORT...] [--chrome]
//   hvacctl [--timeout MS] top     HOST:PORT[,HOST:PORT...] [--json]
//                                  [--interval N] [--count N]
//   hvacctl pack    ROOT [--container-bytes N]
//   hvacctl gentree ROOT NUM_FILES MEAN_BYTES [--sigma S] [--seed N]
//                   [--manifest FILE]
//
// `pack` and `gentree` are offline dataset-ingest commands (no server
// involved): gentree materializes a deterministic synthetic small-file
// tree (writing an optional "<path> <size> <fnv64>" manifest in the
// intercept_target output format, for byte-level verification without
// the originals), and pack rolls a tree into .hvacpack/ container
// blobs plus the binary index the servers and clients resolve packed
// samples from (storage/packed_format.h).
//
// Talks the same RPC schema as the client library; useful for
// checking server health from a login node and for watching hit
// rates during a training run. `metrics` decodes the metrics frame
// v2 (handle-cache / buffer-pool / read-ahead / resilience sections
// and per-op latency histograms) and degrades to the seven v1
// counters against an old server; --json emits one machine-readable
// document per sample (the CI bench gate consumes this), --watch N
// resamples every N seconds until interrupted, and --families lists
// the OpenMetrics families a server's scrape carries (from the schema
// table; no server involved). `health` pings each
// endpoint, reports the round-trip time and the server's fault-domain
// counters, and exits nonzero when any endpoint is unreachable.
//
// Every RPC is bounded by --timeout (default 2000 ms, applied to
// connect, per-recv and the whole call) so a dead or wedged server
// cannot hang the CLI.
// `trace` drains each server's span rings (servers run with
// HVAC_TRACE=1) and prints a per-span table, or with --chrome a
// trace.json loadable in chrome://tracing / ui.perfetto.dev. The
// dump is consuming: each span is returned to exactly one poller.
#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/env.h"
#include "common/hash.h"
#include "core/metrics_frame.h"
#include "core/metrics_schema.h"
#include "core/timeseries.h"
#include "core/trace_wire.h"
#include "rpc/health.h"
#include "rpc/rpc_client.h"
#include "rpc/wire.h"
#include "server/hvac_proto.h"
#include "storage/packed_format.h"
#include "workload/dataset_spec.h"
#include "workload/file_tree.h"

using namespace hvac;
using rpc::Bytes;
using rpc::WireReader;
using rpc::WireWriter;

namespace {

// Short, uniform bound for an interactive tool: a dead server should
// cost one timeout, not the library's 30 s default.
int g_timeout_ms = 2000;

rpc::RpcClientOptions cli_options() {
  rpc::RpcClientOptions o;
  o.connect_timeout_ms = g_timeout_ms;
  o.recv_timeout_ms = g_timeout_ms;
  o.call_timeout_ms = g_timeout_ms;
  o.max_retries = 0;  // operators prefer a fast error over a retry
  return o;
}

int cmd_ping(const std::string& csv) {
  int failures = 0;
  for (const auto& endpoint : split_csv(csv)) {
    rpc::RpcClient client(rpc::Endpoint{endpoint}, cli_options());
    const auto resp = client.call(proto::kPing, Bytes{});
    std::printf("%-24s %s\n", endpoint.c_str(),
                resp.ok() ? "OK" : resp.error().to_string().c_str());
    if (!resp.ok()) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

// Column width of a v1 prefix word in the per-endpoint row.
int column_width(const core::FieldSpec& field) {
  return std::max(static_cast<int>(std::strlen(field.name)), 8);
}

void print_metrics_header() {
  std::printf("%-24s", "endpoint");
  for (const core::FieldSpec& field : core::frame_fields()) {
    if (field.section != core::kV1Prefix) continue;
    std::printf(" %*s", column_width(field), field.name);
  }
  std::printf("\n");
}

// Section `id`'s words as " name=value" (prefetch adds paced_delay).
void print_words(const core::MetricsFrame& f, uint16_t id) {
  for (const core::FieldSpec& field : core::frame_fields()) {
    if (field.section == id) {
      std::printf(" %s=%lu", field.name, (unsigned long)field.get(f));
    }
  }
  if (id == core::kSectionPrefetch) {
    const core::LatencySnapshot& s = f.prefetch.paced_delay;
    std::printf(" paced_delay(n=%lu p50=%.1fus p99=%.1fus)",
                (unsigned long)s.count, s.percentile_ns(50) / 1e3,
                s.percentile_ns(99) / 1e3);
  }
}

// Closes a per-endpoint listing: the JSON envelope, then the exit code.
int finish_endpoints(bool json, const std::string& json_rows, int failures) {
  if (json) {
    std::printf("{\"endpoints\":[%s],\"failures\":%d}\n", json_rows.c_str(),
                failures);
  }
  std::fflush(stdout);
  return failures == 0 ? 0 : 1;
}

// The endpoint's v2 metrics frame; nothing if it is down or speaks v1.
std::optional<core::MetricsFrame> fetch_frame(rpc::RpcClient& client) {
  const auto resp = client.call(proto::kMetrics, Bytes{});
  if (!resp.ok()) return std::nullopt;
  auto frame = core::MetricsFrame::decode(*resp);
  if (!frame.ok() || frame->version < 2) return std::nullopt;
  return std::move(*frame);
}

// Per-endpoint UP/DOWN, ping RTT and the resilience section.
int cmd_health(const std::string& csv, bool json) {
  int failures = 0;
  std::string json_rows;
  if (!json) {
    std::printf("%-24s %-6s %8s  %s\n", "endpoint", "state", "rtt_us",
                "resilience");
  }
  for (const auto& endpoint : split_csv(csv)) {
    rpc::RpcClient client(rpc::Endpoint{endpoint}, cli_options());
    const int64_t t0 = rpc::steady_now_us();
    const auto ping = client.call(proto::kPing, Bytes{});
    const int64_t rtt_us = rpc::steady_now_us() - t0;
    const std::optional<core::MetricsFrame> frame =
        ping.ok() ? fetch_frame(client) : std::nullopt;
    if (json) {
      if (!json_rows.empty()) json_rows += ",";
      json_rows += "{\"endpoint\":\"" + endpoint + "\",\"up\":" +
                   (ping.ok() ? "true" : "false") +
                   ",\"rtt_us\":" + std::to_string(rtt_us);
      if (frame) json_rows += frame->section_json(core::kSectionResilience);
      json_rows += "}";
    } else if (!ping.ok()) {
      std::printf("%-24s %-6s %8s  %s\n", endpoint.c_str(), "DOWN", "-",
                  ping.error().to_string().c_str());
    } else {
      std::printf("%-24s %-6s %8ld ", endpoint.c_str(), "UP", (long)rtt_us);
      if (frame) {
        print_words(*frame, core::kSectionResilience);
      } else {
        std::printf(" (v1 server, no resilience section)");
      }
      std::printf("\n");
    }
    if (!ping.ok()) ++failures;
  }
  return finish_endpoints(json, json_rows, failures);
}

// The v1 prefix words under the header, then one name=value line per
// section, reactor, stall epoch and op.
void print_metrics_row(const std::string& endpoint,
                       const core::MetricsFrame& f) {
  std::printf("%-24s", endpoint.c_str());
  for (const core::FieldSpec& field : core::frame_fields()) {
    if (field.section != core::kV1Prefix) continue;
    std::printf(" %*lu", column_width(field), (unsigned long)field.get(f));
  }
  std::printf("\n");
  if (f.version < 2) return;
  uint16_t printed = core::kV1Prefix;  // table rows come in section runs
  for (const core::FieldSpec& field : core::frame_fields()) {
    if (field.section == printed) continue;
    printed = field.section;
    std::printf("  %-13s", field.group);
    print_words(f, printed);
    std::printf("\n");
  }
  for (size_t i = 0; i < f.reactor.reactors.size(); ++i) {
    std::printf("  reactor %-5zu", i);
    for (const core::ReactorField& field : core::reactor_fields()) {
      std::printf(" %s=%lu", field.name,
                  (unsigned long)(f.reactor.reactors[i].*field.member));
    }
    std::printf("\n");
  }
  for (const core::StallEpochRow& e : f.stall.epochs) {
    std::printf("  %-13s", "stall");
    for (const core::StallField& field : core::stall_fields()) {
      if (field.seconds) {
        std::printf(" %s=%.6f", field.name, double(e.*field.member) / 1e9);
      } else {
        std::printf(" %s=%lu", field.name, (unsigned long)(e.*field.member));
      }
    }
    std::printf("\n");
  }
  for (const auto& [op, snap] : f.op_latency) {
    std::printf("  latency %-12s n=%-8lu p50=%.1fus p99=%.1fus\n",
                core::op_name(op).c_str(), (unsigned long)snap.count,
                snap.percentile_ns(50) / 1e3, snap.percentile_ns(99) / 1e3);
  }
}

// Caller-side rate tracking for `metrics --watch`: remembers the
// previous scrape per endpoint and prints delta/interval next to the
// cumulative counters. (For server-cadence rates with no caller state
// see `hvacctl top`, which reads the kTimeSeries ring instead.)
struct RateState {
  bool have = false;
  uint64_t reads = 0;  // hits + misses at the previous scrape
  uint64_t bytes = 0;  // cache + pfs bytes at the previous scrape
  int64_t t_us = 0;
};
using RateMap = std::unordered_map<std::string, RateState>;

int metrics_once(const std::vector<std::string>& endpoints, bool json,
                 RateMap* rates) {
  int failures = 0;
  core::MetricsFrame aggregate;
  bool first = true;
  std::string json_endpoints;
  if (!json) print_metrics_header();
  for (const auto& endpoint : endpoints) {
    rpc::RpcClient client(rpc::Endpoint{endpoint}, cli_options());
    const auto resp = client.call(proto::kMetrics, Bytes{});
    if (!resp.ok()) {
      if (!json) {
        std::printf("%-24s %s\n", endpoint.c_str(),
                    resp.error().to_string().c_str());
      } else {
        std::fprintf(stderr, "%s: %s\n", endpoint.c_str(),
                     resp.error().to_string().c_str());
      }
      ++failures;
      continue;
    }
    const auto frame = core::MetricsFrame::decode(*resp);
    if (!frame.ok()) {
      std::fprintf(stderr, "%s: %s\n", endpoint.c_str(),
                   frame.error().to_string().c_str());
      ++failures;
      continue;
    }
    double reads_per_s = 0, mb_per_s = 0;
    bool have_rate = false;
    if (rates != nullptr) {
      RateState& st = (*rates)[endpoint];
      const int64_t now_us = rpc::steady_now_us();
      const uint64_t reads = frame->cache.hits + frame->cache.misses;
      const uint64_t bytes =
          frame->cache.bytes_from_cache + frame->cache.bytes_from_pfs;
      if (st.have && now_us > st.t_us) {
        const double dt = double(now_us - st.t_us) / 1e6;
        // Counters are monotonic; a restarted server reads as zero
        // progress for one interval rather than a negative rate.
        reads_per_s = reads >= st.reads ? double(reads - st.reads) / dt : 0;
        mb_per_s = bytes >= st.bytes ? double(bytes - st.bytes) / dt / 1e6
                                     : 0;
        have_rate = true;
      }
      st = RateState{true, reads, bytes, now_us};
    }
    if (json) {
      if (!json_endpoints.empty()) json_endpoints += ",";
      json_endpoints +=
          "{\"endpoint\":\"" + endpoint + "\",\"metrics\":" +
          frame->to_json() + "}";
      if (have_rate) {
        char rate[96];
        std::snprintf(rate, sizeof(rate),
                      ",\"rates\":{\"reads_per_s\":%.3f,\"mb_per_s\":%.3f}",
                      reads_per_s, mb_per_s);
        json_endpoints.insert(json_endpoints.size() - 1, rate);
      }
    } else {
      print_metrics_row(endpoint, *frame);
      if (have_rate) {
        std::printf("  rates        %.1f reads/s  %.2f MB/s\n", reads_per_s,
                    mb_per_s);
      }
    }
    if (first) {
      aggregate = *frame;
      first = false;
    } else {
      aggregate.merge(*frame);
    }
  }
  if (json) {
    std::printf("{\"endpoints\":[%s],\"aggregate\":%s}\n",
                json_endpoints.c_str(), aggregate.to_json().c_str());
  } else if (endpoints.size() > 1 && !first) {
    print_metrics_row("TOTAL", aggregate);
  }
  std::fflush(stdout);
  return failures == 0 ? 0 : 1;
}

volatile std::sig_atomic_t g_interrupted = 0;

void on_interrupt(int) { g_interrupted = 1; }

// Naps in short slices until the absolute deadline so SIGINT stays
// responsive; returns false when interrupted.
bool wait_until_us(int64_t deadline_us) {
  for (;;) {
    if (g_interrupted) return false;
    const int64_t now = rpc::steady_now_us();
    if (now >= deadline_us) return true;
    ::usleep(static_cast<useconds_t>(
        std::min<int64_t>(deadline_us - now, 200'000)));
  }
}

int cmd_metrics(const std::string& csv, bool json, int watch_seconds) {
  const std::vector<std::string> endpoints = split_csv(csv);
  RateMap rates;
  if (watch_seconds > 0) {
    // Watch mode is routinely piped (`hvacctl metrics --watch | head`)
    // and interrupted. SIGPIPE would kill us mid-printf with a noisy
    // 141; instead ignore it and treat a write failure as a normal
    // end-of-watch. SIGINT just stops the loop cleanly (exit 0).
    std::signal(SIGINT, on_interrupt);
    std::signal(SIGPIPE, SIG_IGN);
  }
  // Absolute-deadline pacing: sleep-after-work would drift by the
  // scrape time every iteration, so the Nth sample lands at
  // t0 + N*interval instead of slowly walking away from it.
  int64_t next_us = rpc::steady_now_us();
  for (;;) {
    const int rc =
        metrics_once(endpoints, json, watch_seconds > 0 ? &rates : nullptr);
    if (watch_seconds <= 0) return rc;
    if (std::fflush(stdout) != 0 || std::ferror(stdout) != 0) return 0;
    next_us += int64_t(watch_seconds) * 1'000'000;
    if (const int64_t now = rpc::steady_now_us(); next_us < now) {
      next_us = now;  // a scrape slower than the interval skips, not bunches
    }
    if (!wait_until_us(next_us)) return 0;
  }
}

int cmd_trace(const std::string& csv, bool chrome) {
  int failures = 0;
  std::vector<core::EndpointSpans> endpoints;
  for (const auto& endpoint : split_csv(csv)) {
    rpc::RpcClient client(rpc::Endpoint{endpoint}, cli_options());
    const auto resp = client.call(proto::kTraceDump, Bytes{});
    if (!resp.ok()) {
      std::fprintf(stderr, "%s: %s\n", endpoint.c_str(),
                   resp.error().to_string().c_str());
      ++failures;
      continue;
    }
    // The v2 dump carries the endpoint's (REALTIME, MONOTONIC) sample;
    // the Chrome export uses it to land every endpoint on one common
    // t=0. A v1 peer decodes with an invalid clock and keeps a private
    // zero.
    core::SpanDumpClock clock;
    auto spans = core::decode_spans(*resp, &clock);
    if (!spans.ok()) {
      std::fprintf(stderr, "%s: %s\n", endpoint.c_str(),
                   spans.error().to_string().c_str());
      ++failures;
      continue;
    }
    endpoints.push_back(
        core::EndpointSpans{endpoint, std::move(*spans), clock});
  }
  if (chrome) {
    std::printf("%s\n", core::spans_to_chrome_json(endpoints).c_str());
  } else {
    std::printf("%-24s %-16s %9s %9s %-18s %10s %10s %8s\n", "endpoint",
                "trace", "span", "parent", "name", "t_ms", "dur_ms", "arg");
    for (const auto& ep : endpoints) {
      if (ep.spans.empty()) continue;
      uint64_t min_start = UINT64_MAX;
      for (const auto& s : ep.spans) {
        min_start = std::min(min_start, s.start_ns);
      }
      for (const auto& s : ep.spans) {
        std::printf("%-24s %016" PRIx64 " %9u %9u %-18s %10.3f %10.3f "
                    "%8" PRIu64 "\n",
                    ep.name.c_str(), s.trace_id, s.span_id, s.parent_id,
                    s.name.c_str(), double(s.start_ns - min_start) / 1e6,
                    double(s.dur_ns) / 1e6, s.arg);
      }
    }
  }
  std::fflush(stdout);
  return failures == 0 ? 0 : 1;
}

int cmd_path_op(uint16_t opcode, const std::string& endpoint,
                const std::string& path) {
  rpc::RpcClient client(rpc::Endpoint{endpoint}, cli_options());
  WireWriter w;
  // `warm` is a one-path kPrefetchBatch.
  if (opcode == proto::kPrefetchBatch) w.put_u32(1);
  w.put_string(path);
  const auto resp = client.call(opcode, w.bytes());
  if (!resp.ok()) {
    std::fprintf(stderr, "%s\n", resp.error().to_string().c_str());
    return 1;
  }
  WireReader r(*resp);
  if (opcode == proto::kStat) {
    const auto size = r.get_u64();
    std::printf("%s: %lu bytes\n", path.c_str(),
                (unsigned long)size.value_or(0));
  } else {
    (void)r.get_u32();
    const auto status = r.get_u8();
    const char* what = "miss";  // fetch failed or fell back to the PFS
    if (status.ok() && *status == proto::kPrefetchCached) what = "cached";
    if (status.ok() && *status == proto::kPrefetchShed) what = "shed";
    std::printf("%s: %s\n", path.c_str(), what);
  }
  return 0;
}

int cmd_pack(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    std::fprintf(stderr, "pack needs ROOT\n");
    return 2;
  }
  storage::PackOptions options;
  for (size_t i = 2; i < args.size(); ++i) {
    if (args[i] == "--container-bytes" && i + 1 < args.size()) {
      options.container_bytes =
          static_cast<uint64_t>(std::atoll(args[++i].c_str()));
    } else {
      std::fprintf(stderr, "unknown pack flag %s\n", args[i].c_str());
      return 2;
    }
  }
  const auto report = storage::pack_tree(args[1], options);
  if (!report.ok()) {
    std::fprintf(stderr, "pack: %s\n", report.error().to_string().c_str());
    return 1;
  }
  std::printf("packed %lu files (%lu bytes) into %lu containers under "
              "%s/%s\n",
              (unsigned long)report->files, (unsigned long)report->bytes,
              (unsigned long)report->containers, args[1].c_str(),
              storage::packed_dir_name().c_str());
  return 0;
}

int cmd_gentree(const std::vector<std::string>& args) {
  if (args.size() < 4) {
    std::fprintf(stderr, "gentree needs ROOT NUM_FILES MEAN_BYTES\n");
    return 2;
  }
  const std::string& root = args[1];
  const uint64_t num_files =
      static_cast<uint64_t>(std::atoll(args[2].c_str()));
  const uint64_t mean_bytes =
      static_cast<uint64_t>(std::atoll(args[3].c_str()));
  double sigma = 0.35;
  uint64_t seed = 0;
  std::string manifest_path;
  for (size_t i = 4; i < args.size(); ++i) {
    if (args[i] == "--sigma" && i + 1 < args.size()) {
      sigma = std::atof(args[++i].c_str());
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      seed = static_cast<uint64_t>(std::atoll(args[++i].c_str()));
    } else if (args[i] == "--manifest" && i + 1 < args.size()) {
      manifest_path = args[++i];
    } else {
      std::fprintf(stderr, "unknown gentree flag %s\n", args[i].c_str());
      return 2;
    }
  }
  if (num_files == 0 || mean_bytes == 0) {
    std::fprintf(stderr, "gentree: NUM_FILES and MEAN_BYTES must be > 0\n");
    return 2;
  }
  const workload::DatasetSpec spec =
      workload::synthetic_small(num_files, mean_bytes, sigma);
  const auto tree = workload::generate_tree(root, spec, seed);
  if (!tree.ok()) {
    std::fprintf(stderr, "gentree: %s\n", tree.error().to_string().c_str());
    return 1;
  }
  if (!manifest_path.empty()) {
    FILE* m = ::fopen(manifest_path.c_str(), "w");
    if (m == nullptr) {
      std::fprintf(stderr, "gentree: cannot write %s\n",
                   manifest_path.c_str());
      return 1;
    }
    for (size_t i = 0; i < tree->relative_paths.size(); ++i) {
      const std::string& rel = tree->relative_paths[i];
      const std::vector<uint8_t> data =
          workload::expected_contents(rel, tree->sizes[i]);
      const uint64_t h = fnv1a64(std::string_view(
          reinterpret_cast<const char*>(data.data()), data.size()));
      std::fprintf(m, "%s/%s %" PRIu64 " %016" PRIx64 "\n", root.c_str(),
                   rel.c_str(), tree->sizes[i], h);
    }
    if (::fclose(m) != 0) {
      std::fprintf(stderr, "gentree: write failed for %s\n",
                   manifest_path.c_str());
      return 1;
    }
  }
  std::printf("generated %zu files (%lu bytes) under %s\n",
              tree->relative_paths.size(),
              (unsigned long)tree->total_bytes, root.c_str());
  return 0;
}

// One section of every endpoint's frame, as the schema spells it:
// `journal` shows the write-back tier ("would a crash right now lose
// anything, and how far behind is the PFS"), `prefetch` the warm-up
// pipeline ("is warm-up ahead of training, and is it stampeding the
// PFS").
int cmd_section(const std::string& csv, bool json, uint16_t section) {
  int failures = 0;
  std::string json_rows;
  for (const auto& endpoint : split_csv(csv)) {
    rpc::RpcClient client(rpc::Endpoint{endpoint}, cli_options());
    const std::optional<core::MetricsFrame> frame = fetch_frame(client);
    const bool have = frame.has_value();
    if (json) {
      if (!json_rows.empty()) json_rows += ",";
      json_rows += "{\"endpoint\":\"" + endpoint + "\",\"up\":" +
                   (have ? "true" : "false");
      if (have) json_rows += frame->section_json(section);
      json_rows += "}";
    } else if (!have) {
      std::printf("%-24s (down, or a v1 server)\n", endpoint.c_str());
    } else {
      std::printf("%-24s", endpoint.c_str());
      print_words(*frame, section);
      std::printf("\n");
    }
    if (!have) ++failures;
  }
  return finish_endpoints(json, json_rows, failures);
}

// ---- top: live dashboard off the server-side time-series ring -------------
//
// Unlike `metrics --watch` (caller-side diffing), every rate here
// comes from the collector's own per-interval deltas (kTimeSeries),
// so two operators watching the same server see the same numbers and
// a freshly started top shows rates immediately.

struct TopRates {
  bool have = false;
  double reads_per_s = 0;
  double hit_pct = 0;
  double cache_mb_s = 0;   // served from NVMe cache
  double pfs_mb_s = 0;     // pulled from the PFS (misses + movers)
  uint64_t flush_lag_ms = 0;
  double pf_hit_pct = 0;   // hit-after-prefetch / (hit-after + late)
  double read_p99_us = 0;
};

TopRates rates_from(const core::TimeSeriesFrame& ts) {
  TopRates r;
  if (ts.samples.empty()) return r;
  const core::TimeSeriesSample& s = ts.samples.back();
  const core::MetricsFrame& d = s.delta;
  const double dt = std::max<uint32_t>(1, s.interval_ms) / 1e3;
  const uint64_t reads = d.cache.hits + d.cache.misses;
  r.have = true;
  r.reads_per_s = double(reads) / dt;
  r.hit_pct = reads > 0 ? 100.0 * double(d.cache.hits) / double(reads) : 0;
  r.cache_mb_s = double(d.cache.bytes_from_cache) / dt / 1e6;
  r.pfs_mb_s = double(d.cache.bytes_from_pfs) / dt / 1e6;
  r.flush_lag_ms = d.write_back.flush_lag_ms;  // gauge: point-in-time
  const uint64_t pf_outcomes =
      d.prefetch.hit_after_prefetch + d.prefetch.late;
  r.pf_hit_pct =
      pf_outcomes > 0
          ? 100.0 * double(d.prefetch.hit_after_prefetch) / pf_outcomes
          : 0;
  // p99 of the busiest read-family op this interval (the delta
  // histogram covers exactly this interval's requests).
  const core::LatencySnapshot* busiest = nullptr;
  for (const auto& [op, snap] : d.op_latency) {
    const std::string name = core::op_name(op);
    if (name != "read" && name != "read_scatter" && name != "read_segment") {
      continue;
    }
    if (busiest == nullptr || snap.count > busiest->count) busiest = &snap;
  }
  if (busiest != nullptr && busiest->count > 0) {
    r.read_p99_us = busiest->percentile_ns(99) / 1e3;
  }
  return r;
}

int top_once(const std::vector<std::string>& endpoints, bool json) {
  int failures = 0;
  std::string json_rows;
  if (!json) {
    std::printf("%-24s %9s %6s %10s %9s %9s %8s %9s\n", "endpoint",
                "reads/s", "hit%", "cacheMB/s", "pfsMB/s", "flushlag",
                "pf_hit%", "p99_us");
  }
  for (const auto& endpoint : endpoints) {
    rpc::RpcClient client(rpc::Endpoint{endpoint}, cli_options());
    const auto resp = client.call(proto::kTimeSeries, Bytes{});
    if (!resp.ok()) {
      if (!json) {
        std::printf("%-24s %s\n", endpoint.c_str(),
                    resp.error().to_string().c_str());
      } else {
        std::fprintf(stderr, "%s: %s\n", endpoint.c_str(),
                     resp.error().to_string().c_str());
      }
      ++failures;
      continue;
    }
    const auto ts = core::TimeSeriesFrame::decode(*resp);
    if (!ts.ok()) {
      std::fprintf(stderr, "%s: %s\n", endpoint.c_str(),
                   ts.error().to_string().c_str());
      ++failures;
      continue;
    }
    const TopRates r = rates_from(*ts);
    if (json) {
      if (!json_rows.empty()) json_rows += ",";
      json_rows += "{\"endpoint\":\"" + endpoint +
                   "\",\"up\":true,\"interval_ms\":" +
                   std::to_string(ts->interval_ms) +
                   ",\"window\":" + std::to_string(ts->window) +
                   ",\"samples\":" + std::to_string(ts->samples.size()) +
                   ",\"total\":" + std::to_string(ts->total);
      if (r.have) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      ",\"rates\":{\"reads_per_s\":%.3f,\"hit_pct\":%.2f,"
                      "\"cache_mb_per_s\":%.3f,\"pfs_mb_per_s\":%.3f,"
                      "\"flush_lag_ms\":%llu,\"prefetch_hit_pct\":%.2f,"
                      "\"read_p99_us\":%.1f}",
                      r.reads_per_s, r.hit_pct, r.cache_mb_s, r.pfs_mb_s,
                      (unsigned long long)r.flush_lag_ms, r.pf_hit_pct,
                      r.read_p99_us);
        json_rows += buf;
      }
      json_rows += "}";
    } else if (!r.have) {
      std::printf("%-24s %s\n", endpoint.c_str(),
                  ts->interval_ms == 0 ? "(collector off: HVAC_TS_INTERVAL_MS=0)"
                                       : "(no samples yet)");
    } else {
      std::printf("%-24s %9.1f %5.1f%% %10.2f %9.2f %9lu %7.1f%% %9.1f\n",
                  endpoint.c_str(), r.reads_per_s, r.hit_pct, r.cache_mb_s,
                  r.pfs_mb_s, (unsigned long)r.flush_lag_ms, r.pf_hit_pct,
                  r.read_p99_us);
    }
    if (!resp.ok()) ++failures;
  }
  return finish_endpoints(json, json_rows, failures);
}

int cmd_top(const std::string& csv, bool json, int interval_seconds,
            int count) {
  const std::vector<std::string> endpoints = split_csv(csv);
  std::signal(SIGINT, on_interrupt);
  std::signal(SIGPIPE, SIG_IGN);
  int64_t next_us = rpc::steady_now_us();
  for (int iter = 0;;) {
    const int rc = top_once(endpoints, json);
    ++iter;
    if (count > 0 && iter >= count) return rc;
    if (std::fflush(stdout) != 0 || std::ferror(stdout) != 0) return 0;
    next_us += int64_t(interval_seconds) * 1'000'000;
    if (const int64_t now = rpc::steady_now_us(); next_us < now) {
      next_us = now;
    }
    if (!wait_until_us(next_us)) return 0;
  }
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--timeout MS] ping ENDPOINTS\n"
               "       %s [--timeout MS] health ENDPOINTS [--json]\n"
               "       %s [--timeout MS] metrics ENDPOINTS [--json] "
               "[--watch N]\n"
               "       %s metrics --families\n"
               "       %s [--timeout MS] stat|warm ENDPOINT PATH\n"
               "       %s [--timeout MS] journal ENDPOINTS [--json]\n"
               "       %s [--timeout MS] prefetch ENDPOINTS [--json]\n"
               "       %s [--timeout MS] top ENDPOINTS [--json]\n"
               "                  [--interval N] [--count N]\n"
               "       %s [--timeout MS] trace ENDPOINTS [--chrome]\n"
               "       %s pack ROOT [--container-bytes N]\n"
               "       %s gentree ROOT NUM_FILES MEAN_BYTES [--sigma S]\n"
               "                  [--seed N] [--manifest FILE]\n",
               argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0,
               argv0, argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the global --timeout flag (valid before or after the
  // command word) so the per-command parsing below stays positional.
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--timeout") {
      if (i + 1 >= argc) return usage(argv[0]);
      g_timeout_ms = std::atoi(argv[++i]);
      if (g_timeout_ms <= 0) g_timeout_ms = 2000;
      continue;
    }
    args.push_back(arg);
  }
  if (args.size() < 2) return usage(argv[0]);
  const std::string cmd = args[0];
  if (cmd == "ping") return cmd_ping(args[1]);
  if (cmd == "pack") return cmd_pack(args);
  if (cmd == "gentree") return cmd_gentree(args);
  if (cmd == "health") {
    bool json = false;
    for (size_t i = 2; i < args.size(); ++i) {
      if (args[i] == "--json") {
        json = true;
      } else {
        std::fprintf(stderr, "unknown health flag %s\n", args[i].c_str());
        return 2;
      }
    }
    return cmd_health(args[1], json);
  }
  if (cmd == "journal" || cmd == "prefetch") {
    bool json = false;
    for (size_t i = 2; i < args.size(); ++i) {
      if (args[i] == "--json") {
        json = true;
      } else {
        std::fprintf(stderr, "unknown %s flag %s\n", cmd.c_str(),
                     args[i].c_str());
        return 2;
      }
    }
    return cmd_section(args[1], json,
                       cmd == "journal" ? core::kSectionWriteBack
                                        : core::kSectionPrefetch);
  }
  if (cmd == "top") {
    bool json = false;
    int interval_seconds = 2;
    int count = 0;  // 0 = until interrupted
    for (size_t i = 2; i < args.size(); ++i) {
      const std::string& flag = args[i];
      if (flag == "--json") {
        json = true;
      } else if (flag == "--interval" && i + 1 < args.size()) {
        interval_seconds = std::max(1, std::atoi(args[++i].c_str()));
      } else if (flag == "--count" && i + 1 < args.size()) {
        count = std::atoi(args[++i].c_str());
      } else {
        std::fprintf(stderr, "unknown top flag %s\n", flag.c_str());
        return 2;
      }
    }
    return cmd_top(args[1], json, interval_seconds, count);
  }
  if (cmd == "metrics") {
    if (args[1] == "--families") {
      // The families a scrape must carry, for scripts/check_openmetrics.py.
      for (const std::string& family : core::openmetrics_families()) {
        std::printf("%s\n", family.c_str());
      }
      return 0;
    }
    bool json = false;
    int watch_seconds = 0;
    for (size_t i = 2; i < args.size(); ++i) {
      const std::string& flag = args[i];
      if (flag == "--json") {
        json = true;
      } else if (flag == "--watch" && i + 1 < args.size()) {
        watch_seconds = std::atoi(args[++i].c_str());
      } else {
        std::fprintf(stderr, "unknown metrics flag %s\n", flag.c_str());
        return 2;
      }
    }
    return cmd_metrics(args[1], json, watch_seconds);
  }
  if (cmd == "trace") {
    bool chrome = false;
    for (size_t i = 2; i < args.size(); ++i) {
      if (args[i] == "--chrome") {
        chrome = true;
      } else {
        std::fprintf(stderr, "unknown trace flag %s\n", args[i].c_str());
        return 2;
      }
    }
    return cmd_trace(args[1], chrome);
  }
  if (args.size() < 3) {
    std::fprintf(stderr, "%s needs ENDPOINT PATH\n", cmd.c_str());
    return 2;
  }
  if (cmd == "stat") return cmd_path_op(proto::kStat, args[1], args[2]);
  if (cmd == "warm") {
    return cmd_path_op(proto::kPrefetchBatch, args[1], args[2]);
  }
  std::fprintf(stderr, "unknown command %s\n", cmd.c_str());
  return 2;
}
