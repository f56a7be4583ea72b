// Telemetry plane: time-series ring semantics, kTimeSeries codec
// cross-version tolerance, frame_delta counter/gauge rules, and the
// OpenMetrics exporter (rendered grammar + a live HTTP scrape), the
// pinned goldens, hostile time-series payloads, and the collector,
// exporter and client traffic running at once.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "client/hvac_client.h"
#include "core/metrics_frame.h"
#include "core/timeseries.h"
#include "metrics_golden.h"
#include "rpc/rpc_client.h"
#include "rpc/wire.h"
#include "server/hvac_proto.h"
#include "server/node_runtime.h"
#include "server/prom_exporter.h"
#include "workload/file_tree.h"

namespace hvac {
namespace {

using core::MetricsFrame;
using core::TimeSeriesFrame;
using core::TimeSeriesRing;
using core::TimeSeriesSample;
using rpc::Bytes;
using rpc::WireReader;
using rpc::WireWriter;

MetricsFrame frame_with(uint64_t hits) {
  MetricsFrame f;
  f.cache.hits = hits;
  f.cache.misses = 3;
  f.cache.bytes_from_cache = hits * 100;
  f.open_fds = 7;
  f.stall.epochs = {{2, 50, 4000, 1000, 2000, 500, 400, 100}};
  f.reactor.reactors = {{2, 40, 5, 1}};  // labeled per-reactor samples
  core::LatencySnapshot lat;
  lat.count = 4;
  lat.total_ns = 8000;
  lat.buckets[11] = 4;
  f.op_latency[proto::kRead] = lat;
  return f;
}

TimeSeriesSample sample_with(uint64_t t_ms, uint64_t hits) {
  TimeSeriesSample s;
  s.t_ms = t_ms;
  s.interval_ms = 1000;
  s.delta = frame_with(hits);
  return s;
}

TEST(TimeSeriesRing, WrapKeepsNewestSamples) {
  TimeSeriesRing ring(4);
  for (uint64_t i = 0; i < 6; ++i) ring.push(sample_with(i, i + 1));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.total_pushed(), 6u);
  const std::vector<TimeSeriesSample> got = ring.samples();
  ASSERT_EQ(got.size(), 4u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].t_ms, i + 2);  // oldest two were overwritten
    EXPECT_EQ(got[i].delta.cache.hits, i + 3);
  }
}

TEST(TimeSeriesRing, ZeroCapacityClampsToOne) {
  TimeSeriesRing ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  ring.push(sample_with(1, 1));
  ring.push(sample_with(2, 2));
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.samples()[0].t_ms, 2u);
}

TEST(TimeSeries, EncodeDecodeRoundTrip) {
  TimeSeriesRing ring(8);
  ring.push(sample_with(1000, 10));
  ring.push(sample_with(2000, 25));
  const auto decoded = TimeSeriesFrame::decode(ring.encode(500));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded->version, core::kTimeSeriesVersion);
  EXPECT_EQ(decoded->interval_ms, 500u);
  EXPECT_EQ(decoded->window, 8u);
  EXPECT_EQ(decoded->total, 2u);
  ASSERT_EQ(decoded->samples.size(), 2u);
  EXPECT_EQ(decoded->samples[0].t_ms, 1000u);
  EXPECT_EQ(decoded->samples[0].interval_ms, 1000u);
  EXPECT_EQ(decoded->samples[0].delta.cache.hits, 10u);
  EXPECT_EQ(decoded->samples[1].t_ms, 2000u);
  EXPECT_EQ(decoded->samples[1].delta.cache.hits, 25u);
  // The inner frame carries every metrics-frame section, stall and
  // per-op histograms included.
  ASSERT_EQ(decoded->samples[1].delta.stall.epochs.size(), 1u);
  EXPECT_EQ(decoded->samples[1].delta.stall.epochs[0].remote_rpc_ns, 2000u);
  EXPECT_EQ(decoded->samples[1].delta.op_latency.at(proto::kRead).count, 4u);
}

TEST(TimeSeries, DecodeRejectsBadMagic) {
  WireWriter w;
  w.put_u32(0xdeadbeef);
  w.put_u16(1);
  const auto decoded = TimeSeriesFrame::decode(w.bytes());
  EXPECT_FALSE(decoded.ok());
}

TEST(TimeSeries, DecodeSkipsUnknownSampleTailAndBadBodies) {
  // A payload from a *newer* writer: sample bodies grew a trailing
  // field after the frame blob, and one sample's frame bytes are
  // garbage. The decoder must keep every parseable sample and skip the
  // rest by the outer length prefix.
  const Bytes good_frame = frame_with(42).encode();
  WireWriter w;
  w.put_u32(core::kTimeSeriesMagic);
  w.put_u16(core::kTimeSeriesVersion);
  w.put_u32(1000);  // interval_ms
  w.put_u32(16);    // window
  w.put_u64(3);     // total
  w.put_u16(3);     // three samples follow
  {
    WireWriter body;  // sample with an unknown future tail field
    body.put_u64(111);
    body.put_u32(999);
    body.put_blob(good_frame.data(), good_frame.size());
    body.put_u64(0xfeedface);  // the future field
    w.put_blob(body.bytes().data(), body.bytes().size());
  }
  {
    WireWriter body;  // sample whose frame bytes do not decode
    body.put_u64(222);
    body.put_u32(1000);
    const uint8_t junk[3] = {0x01, 0x02, 0x03};
    body.put_blob(junk, sizeof(junk));
    w.put_blob(body.bytes().data(), body.bytes().size());
  }
  {
    WireWriter body;  // normal sample after the bad one
    body.put_u64(333);
    body.put_u32(1000);
    body.put_blob(good_frame.data(), good_frame.size());
    w.put_blob(body.bytes().data(), body.bytes().size());
  }
  const auto decoded = TimeSeriesFrame::decode(w.bytes());
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded->total, 3u);
  ASSERT_EQ(decoded->samples.size(), 2u);
  EXPECT_EQ(decoded->samples[0].t_ms, 111u);
  EXPECT_EQ(decoded->samples[0].interval_ms, 999u);
  EXPECT_EQ(decoded->samples[0].delta.cache.hits, 42u);
  EXPECT_EQ(decoded->samples[1].t_ms, 333u);
}

TEST(TimeSeries, FrameDeltaCountersGaugesAndHistograms) {
  MetricsFrame prev;
  prev.cache.hits = 100;
  prev.cache.bytes_from_cache = 1000;
  prev.open_fds = 9;
  prev.handle_cache.open = 3;
  prev.trace.occupancy = 80;
  prev.write_back.flush_lag_ms = 70;
  core::LatencySnapshot plat;
  plat.count = 10;
  plat.total_ns = 1000;
  plat.buckets[5] = 10;
  prev.op_latency[proto::kRead] = plat;

  MetricsFrame cur;
  cur.cache.hits = 130;
  cur.cache.bytes_from_cache = 900;  // peer restarted: counter went down
  cur.open_fds = 4;
  cur.handle_cache.open = 6;
  cur.trace.occupancy = 20;
  cur.write_back.flush_lag_ms = 15;
  cur.stall.epochs = {{3, 7, 700, 700, 0, 0, 0, 0}};
  core::LatencySnapshot clat;
  clat.count = 14;
  clat.total_ns = 1600;
  clat.buckets[5] = 14;
  cur.op_latency[proto::kRead] = clat;
  core::LatencySnapshot open_lat;
  open_lat.count = 2;
  open_lat.total_ns = 50;
  open_lat.buckets[4] = 2;
  cur.op_latency[proto::kOpen] = open_lat;  // op absent from prev

  const MetricsFrame d = core::frame_delta(cur, prev);
  EXPECT_EQ(d.cache.hits, 30u);              // counter: cur - prev
  EXPECT_EQ(d.cache.bytes_from_cache, 0u);   // restart clamps at zero
  EXPECT_EQ(d.open_fds, 4u);                 // gauge: carries cur
  EXPECT_EQ(d.handle_cache.open, 6u);        // gauge
  EXPECT_EQ(d.trace.occupancy, 20u);         // gauge
  EXPECT_EQ(d.write_back.flush_lag_ms, 15u); // gauge
  // Per-epoch cumulative stall rows carry over as-is.
  ASSERT_EQ(d.stall.epochs.size(), 1u);
  EXPECT_EQ(d.stall.epochs[0].total_ns, 700u);
  // Histograms difference bucket-wise; ops new in cur carry whole.
  EXPECT_EQ(d.op_latency.at(proto::kRead).count, 4u);
  EXPECT_EQ(d.op_latency.at(proto::kRead).total_ns, 600u);
  EXPECT_EQ(d.op_latency.at(proto::kRead).buckets[5], 4u);
  EXPECT_EQ(d.op_latency.at(proto::kOpen).count, 2u);
}

// ---- OpenMetrics rendering ------------------------------------------------

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

TEST(OpenMetrics, GrammarHelpTypeAndTerminator) {
  const std::string body = server::render_openmetrics(frame_with(10));
  ASSERT_GE(body.size(), 6u);
  EXPECT_EQ(body.substr(body.size() - 6), "# EOF\n");

  const std::vector<std::string> lines = split_lines(body);
  size_t families = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind("# TYPE ", 0) != 0) continue;
    ++families;
    // Every TYPE line is immediately preceded by HELP for the same
    // family name.
    ASSERT_GT(i, 0u) << lines[i];
    const std::string name =
        lines[i].substr(7, lines[i].find(' ', 7) - 7);
    EXPECT_EQ(lines[i - 1].rfind("# HELP " + name + " ", 0), 0u)
        << "HELP must precede TYPE for " << name;
    // Counter families expose samples under `<name>_total`.
    if (lines[i].find(" counter") != std::string::npos) {
      bool found = false;
      for (size_t j = i + 1; j < lines.size() && lines[j][0] != '#'; ++j) {
        if (lines[j].rfind(name + "_total", 0) == 0) found = true;
      }
      EXPECT_TRUE(found) << "no _total sample for counter " << name;
    }
  }
  EXPECT_GT(families, 30u);  // every section renders

  // Stall wall time appears once per bucket label.
  for (const char* b :
       {"local_hit", "remote_rpc", "pfs_wait", "backpressure", "retry"}) {
    const std::string want =
        std::string("hvac_stall_seconds_total{bucket=\"") + b + "\"} ";
    EXPECT_NE(body.find(want), std::string::npos) << want;
  }
  EXPECT_NE(body.find("hvac_stall_reads_total 50"), std::string::npos);
}

TEST(OpenMetrics, HistogramIsCumulativeAndEndsAtInf) {
  const std::string body = server::render_openmetrics(frame_with(10));
  const std::vector<std::string> lines = split_lines(body);
  std::vector<uint64_t> cumulative;
  bool saw_inf = false;
  uint64_t count_value = 0;
  for (const std::string& line : lines) {
    if (line.rfind("hvac_op_latency_seconds_bucket{op=\"read\"", 0) == 0) {
      cumulative.push_back(std::stoull(line.substr(line.rfind(' ') + 1)));
      if (line.find("le=\"+Inf\"") != std::string::npos) saw_inf = true;
    } else if (line.rfind("hvac_op_latency_seconds_count{op=\"read\"", 0) ==
               0) {
      count_value = std::stoull(line.substr(line.rfind(' ') + 1));
    }
  }
  ASSERT_EQ(cumulative.size(), core::kLatencyBuckets);
  for (size_t i = 1; i < cumulative.size(); ++i) {
    EXPECT_GE(cumulative[i], cumulative[i - 1]) << "bucket " << i;
  }
  EXPECT_TRUE(saw_inf);
  EXPECT_EQ(cumulative.back(), count_value);
  EXPECT_EQ(count_value, 4u);
}

// ---- goldens ----------------------------------------------------------------
//
// Captured from the hand-written delta and exporter before the field
// table replaced them (frames from tests/metrics_golden.h).

const char* const kGoldenDelta =
    "e203000000000000dc03000000000000d603000000000000d003000000000000"
    "ca03000000000000c403000000000000be030000000000002004000000000000"
    "48564d3202000c00010030000000b203000000000000ac030000000000003504"
    "0000000000003c040000000000009a030000000000004a040000000000000200"
    "280000008e03000000000000880300000000000082030000000000007c030000"
    "00000000760300000000000003001800000070030000000000006a0300000000"
    "000064030000000000000400aa02000002000200fc4d010000000000e9080000"
    "000000002800d107000000000000d807000000000000df07000000000000e607"
    "000000000000ed07000000000000f407000000000000fb070000000000000208"
    "0000000000000908000000000000100800000000000017080000000000001e08"
    "00000000000025080000000000002c0800000000000033080000000000003a08"
    "000000000000410800000000000048080000000000004f080000000000005608"
    "0000000000005d0800000000000064080000000000006b080000000000007208"
    "0000000000007908000000000000800800000000000087080000000000008e08"
    "00000000000095080000000000009c08000000000000a308000000000000aa08"
    "000000000000b108000000000000b808000000000000bf08000000000000c608"
    "000000000000cd08000000000000d408000000000000db08000000000000e208"
    "0000000000000300000000000000000000000000000000002800000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000050058000000"
    "5e03000000000000580300000000000052030000000000004c03000000000000"
    "460300000000000040030000000000003a030000000000003403000000000000"
    "2e03000000000000280300000000000022030000000000000600280000001c03"
    "0000000000000a03000000000000fe0200000000000000000000000000000000"
    "000000000000070000000000080028000000e002000000000000da0200000000"
    "00002a0500000000000031050000000000003805000000000000090064000000"
    "02000600c202000000000000bc02000000000000b602000000000000b0020000"
    "00000000aa020000000000000000000000000000620500000000000069050000"
    "00000000700500000000000077050000000000007e05000000000000160a0000"
    "000000000a00a0000000860200000000000080020000000000007a0200000000"
    "00009a05000000000000a105000000000000a805000000000000af0500000000"
    "00005c0200000000000056020000000000005002000000000000cb0500000000"
    "0000d205000000000000d9050000000000003802000000000000320200000000"
    "0000ee05000000000000f505000000000000fc05000000000000030600000000"
    "000000000000000000000b009a01000014020000000000000e02000000000000"
    "08020000000000000202000000000000fc01000000000000f601000000000000"
    "f0010000000000003b0600000000000000000000000000005839000000000000"
    "f4000000000000002800e401000000000000de01000000000000d80100000000"
    "0000d201000000000000cc01000000000000c601000000000000c00100000000"
    "0000ba01000000000000b401000000000000ae01000000000000a80100000000"
    "0000a2010000000000009c010000000000009601000000000000900100000000"
    "00008a0100000000000084010000000000007e01000000000000780100000000"
    "000072010000000000006c010000000000006601000000000000600100000000"
    "00005a0100000000000054010000000000004e01000000000000480100000000"
    "000042010000000000003c010000000000003601000000000000300100000000"
    "00002a0100000000000024010000000000001e01000000000000180100000000"
    "000012010000000000000c010000000000000601000000000000000100000000"
    "0000fa000000000000000c008400000002000800610700000000000068070000"
    "000000006f0700000000000076070000000000007d0700000000000084070000"
    "000000008b0700000000000092070000000000009907000000000000a0070000"
    "00000000a707000000000000ae07000000000000b507000000000000bc070000"
    "00000000c307000000000000ca07000000000000";

TEST(TimeSeriesGolden, FrameDeltaIsPinned) {
  const MetricsFrame d =
      core::frame_delta(golden::delta_cur(), golden::delta_prev());
  EXPECT_EQ(golden::hex(d.encode()), kGoldenDelta);
}

const char* const kGoldenOpenMetrics = R"golden(# HELP hvac_cache_hits Reads served from the node-local cache
# TYPE hvac_cache_hits counter
hvac_cache_hits_total 1
# HELP hvac_cache_misses Reads that required a PFS fetch
# TYPE hvac_cache_misses counter
hvac_cache_misses_total 2
# HELP hvac_cache_dedup_waits First-reads coalesced onto an in-flight copy
# TYPE hvac_cache_dedup_waits counter
hvac_cache_dedup_waits_total 3
# HELP hvac_cache_evictions Cache evictions
# TYPE hvac_cache_evictions counter
hvac_cache_evictions_total 4
# HELP hvac_cache_bytes_from_cache Bytes served from the node-local cache
# TYPE hvac_cache_bytes_from_cache counter
hvac_cache_bytes_from_cache_total 5
# HELP hvac_cache_bytes_from_pfs Bytes read from the PFS
# TYPE hvac_cache_bytes_from_pfs counter
hvac_cache_bytes_from_pfs_total 6
# HELP hvac_cache_pfs_fallbacks Requests served directly from the PFS
# TYPE hvac_cache_pfs_fallbacks counter
hvac_cache_pfs_fallbacks_total 7
# HELP hvac_open_fds Open remote file handles
# TYPE hvac_open_fds gauge
hvac_open_fds 8
# HELP hvac_handle_cache_hits Reads served from a resident cache slab's fd
# TYPE hvac_handle_cache_hits counter
hvac_handle_cache_hits_total 9
# HELP hvac_handle_cache_misses Reads that opened an fd (write-back files, slabs past the fd budget)
# TYPE hvac_handle_cache_misses counter
hvac_handle_cache_misses_total 10
# HELP hvac_handle_cache_deferred_closes Cache slabs dropped while pinned
# TYPE hvac_handle_cache_deferred_closes counter
hvac_handle_cache_deferred_closes_total 13
# HELP hvac_handle_cache_open Cache slab fds held
# TYPE hvac_handle_cache_open gauge
hvac_handle_cache_open 11
# HELP hvac_handle_cache_pinned Cache slabs with a pinned fd
# TYPE hvac_handle_cache_pinned gauge
hvac_handle_cache_pinned 12
# HELP hvac_handle_cache_capacity Store fd budget, in slabs
# TYPE hvac_handle_cache_capacity gauge
hvac_handle_cache_capacity 14
# HELP hvac_buffer_pool_leases Buffer-pool acquires
# TYPE hvac_buffer_pool_leases counter
hvac_buffer_pool_leases_total 15
# HELP hvac_buffer_pool_hits Leases served from a free list
# TYPE hvac_buffer_pool_hits counter
hvac_buffer_pool_hits_total 16
# HELP hvac_buffer_pool_fallback_allocs Leases that hit the allocator
# TYPE hvac_buffer_pool_fallback_allocs counter
hvac_buffer_pool_fallback_allocs_total 17
# HELP hvac_buffer_pool_recycled Leases returned to a free list
# TYPE hvac_buffer_pool_recycled counter
hvac_buffer_pool_recycled_total 18
# HELP hvac_buffer_pool_dropped Leases freed (list full)
# TYPE hvac_buffer_pool_dropped counter
hvac_buffer_pool_dropped_total 19
# HELP hvac_readahead_issued Chunks requested ahead of the application
# TYPE hvac_readahead_issued counter
hvac_readahead_issued_total 20
# HELP hvac_readahead_consumed Reads served from a pending chunk
# TYPE hvac_readahead_consumed counter
hvac_readahead_consumed_total 21
# HELP hvac_readahead_wasted Pending chunks discarded unread
# TYPE hvac_readahead_wasted counter
hvac_readahead_wasted_total 22
# HELP hvac_resilience_breaker_opens Circuit-breaker opens
# TYPE hvac_resilience_breaker_opens counter
hvac_resilience_breaker_opens_total 23
# HELP hvac_resilience_breaker_closes Circuit-breaker closes
# TYPE hvac_resilience_breaker_closes counter
hvac_resilience_breaker_closes_total 24
# HELP hvac_resilience_breaker_probes Half-open probes
# TYPE hvac_resilience_breaker_probes counter
hvac_resilience_breaker_probes_total 25
# HELP hvac_resilience_breaker_shed Calls shed by an open breaker
# TYPE hvac_resilience_breaker_shed counter
hvac_resilience_breaker_shed_total 26
# HELP hvac_resilience_retries Idempotent call retries
# TYPE hvac_resilience_retries counter
hvac_resilience_retries_total 27
# HELP hvac_resilience_deadline_misses Per-call deadline misses
# TYPE hvac_resilience_deadline_misses counter
hvac_resilience_deadline_misses_total 28
# HELP hvac_resilience_server_shed Requests shed by server backpressure
# TYPE hvac_resilience_server_shed counter
hvac_resilience_server_shed_total 29
# HELP hvac_resilience_mover_rejects Fetches rejected by the mover queue
# TYPE hvac_resilience_mover_rejects counter
hvac_resilience_mover_rejects_total 30
# HELP hvac_resilience_drains Graceful drains
# TYPE hvac_resilience_drains counter
hvac_resilience_drains_total 31
# HELP hvac_resilience_drained_requests Requests completed during drain
# TYPE hvac_resilience_drained_requests counter
hvac_resilience_drained_requests_total 32
# HELP hvac_resilience_faults_injected HVAC_FAULT harness activations
# TYPE hvac_resilience_faults_injected counter
hvac_resilience_faults_injected_total 33
# HELP hvac_zerocopy_sendfile_sends sendfile response sends
# TYPE hvac_zerocopy_sendfile_sends counter
hvac_zerocopy_sendfile_sends_total 34
# HELP hvac_zerocopy_sendfile_bytes Bytes sent via sendfile
# TYPE hvac_zerocopy_sendfile_bytes counter
hvac_zerocopy_sendfile_bytes_total 37
# HELP hvac_zerocopy_short_resumes Partial kernel sends resumed in place
# TYPE hvac_zerocopy_short_resumes counter
hvac_zerocopy_short_resumes_total 39
# HELP hvac_zerocopy_fd_passes Read-only cache fds passed to local clients
# TYPE hvac_zerocopy_fd_passes counter
hvac_zerocopy_fd_passes_total 227
# HELP hvac_zerocopy_fd_pass_bytes Bytes of the files whose cache fds were passed
# TYPE hvac_zerocopy_fd_pass_bytes counter
hvac_zerocopy_fd_pass_bytes_total 228
# HELP hvac_trace_emitted Trace spans emitted
# TYPE hvac_trace_emitted counter
hvac_trace_emitted_total 44
# HELP hvac_trace_dropped Trace spans dropped (ring full)
# TYPE hvac_trace_dropped counter
hvac_trace_dropped_total 45
# HELP hvac_trace_rings Per-thread trace rings
# TYPE hvac_trace_rings gauge
hvac_trace_rings 46
# HELP hvac_trace_ring_capacity Trace ring capacity
# TYPE hvac_trace_ring_capacity gauge
hvac_trace_ring_capacity 47
# HELP hvac_trace_occupancy Trace ring occupancy
# TYPE hvac_trace_occupancy gauge
hvac_trace_occupancy 48
# HELP hvac_reactor_conns Connections accepted
# TYPE hvac_reactor_conns counter
hvac_reactor_conns_total{reactor="0"} 49
hvac_reactor_conns_total{reactor="1"} 54
# HELP hvac_reactor_requests Requests dispatched
# TYPE hvac_reactor_requests counter
hvac_reactor_requests_total{reactor="0"} 50
hvac_reactor_requests_total{reactor="1"} 55
# HELP hvac_reactor_steals Requests stolen from another reactor
# TYPE hvac_reactor_steals counter
hvac_reactor_steals_total{reactor="0"} 51
hvac_reactor_steals_total{reactor="1"} 56
# HELP hvac_reactor_shed Requests shed by backpressure
# TYPE hvac_reactor_shed counter
hvac_reactor_shed_total{reactor="0"} 52
hvac_reactor_shed_total{reactor="1"} 57
# HELP hvac_reactor_steal_backoffs Steal scans skipped by the throttle
# TYPE hvac_reactor_steal_backoffs counter
hvac_reactor_steal_backoffs_total{reactor="0"} 53
hvac_reactor_steal_backoffs_total{reactor="1"} 58
# HELP hvac_reactor_local_conns Connections accepted over the node-local alias
# TYPE hvac_reactor_local_conns counter
hvac_reactor_local_conns_total{reactor="0"} 225
hvac_reactor_local_conns_total{reactor="1"} 226
# HELP hvac_write_back_writes kWrite ops acked
# TYPE hvac_write_back_writes counter
hvac_write_back_writes_total 59
# HELP hvac_write_back_bytes_written Bytes written back
# TYPE hvac_write_back_bytes_written counter
hvac_write_back_bytes_written_total 60
# HELP hvac_write_back_fsyncs Durability barriers honored
# TYPE hvac_write_back_fsyncs counter
hvac_write_back_fsyncs_total 61
# HELP hvac_write_back_flushed_files Files flushed to the PFS
# TYPE hvac_write_back_flushed_files counter
hvac_write_back_flushed_files_total 66
# HELP hvac_write_back_flush_retries Flush retries
# TYPE hvac_write_back_flush_retries counter
hvac_write_back_flush_retries_total 67
# HELP hvac_write_back_flush_failures Flush failures
# TYPE hvac_write_back_flush_failures counter
hvac_write_back_flush_failures_total 68
# HELP hvac_write_back_write_through_sheds Handles shed to write-through
# TYPE hvac_write_back_write_through_sheds counter
hvac_write_back_write_through_sheds_total 72
# HELP hvac_write_back_write_through_bytes Bytes written through to the PFS
# TYPE hvac_write_back_write_through_bytes counter
hvac_write_back_write_through_bytes_total 73
# HELP hvac_write_back_local_write_bytes Checkpoint bytes written into node-local files
# TYPE hvac_write_back_local_write_bytes counter
hvac_write_back_local_write_bytes_total 229
# HELP hvac_write_back_dirty_bytes Unflushed write-back bytes
# TYPE hvac_write_back_dirty_bytes gauge
hvac_write_back_dirty_bytes 62
# HELP hvac_write_back_dirty_files Unflushed write-back files
# TYPE hvac_write_back_dirty_files gauge
hvac_write_back_dirty_files 63
# HELP hvac_write_back_journal_records Journal depth in records
# TYPE hvac_write_back_journal_records gauge
hvac_write_back_journal_records 64
# HELP hvac_write_back_journal_bytes Journal depth in bytes
# TYPE hvac_write_back_journal_bytes gauge
hvac_write_back_journal_bytes 65
# HELP hvac_write_back_flush_queue_depth Flush queue depth
# TYPE hvac_write_back_flush_queue_depth gauge
hvac_write_back_flush_queue_depth 69
# HELP hvac_write_back_flush_inflight Flushes in flight
# TYPE hvac_write_back_flush_inflight gauge
hvac_write_back_flush_inflight 70
# HELP hvac_write_back_flush_lag_ms Age of the oldest unflushed file (ms)
# TYPE hvac_write_back_flush_lag_ms gauge
hvac_write_back_flush_lag_ms 71
# HELP hvac_prefetch_planned Samples accepted into access plans
# TYPE hvac_prefetch_planned counter
hvac_prefetch_planned_total 78
# HELP hvac_prefetch_issued Samples sent in prefetch batches
# TYPE hvac_prefetch_issued counter
hvac_prefetch_issued_total 79
# HELP hvac_prefetch_completed Prefetches answered cached
# TYPE hvac_prefetch_completed counter
hvac_prefetch_completed_total 80
# HELP hvac_prefetch_shed Prefetches shed by mover backpressure
# TYPE hvac_prefetch_shed counter
hvac_prefetch_shed_total 81
# HELP hvac_prefetch_late Samples the cursor beat the prefetch to
# TYPE hvac_prefetch_late counter
hvac_prefetch_late_total 82
# HELP hvac_prefetch_hit_after Samples found warmed by their prefetch
# TYPE hvac_prefetch_hit_after counter
hvac_prefetch_hit_after_total 83
# HELP hvac_prefetch_deduped Mover fetches coalesced onto an in-flight one
# TYPE hvac_prefetch_deduped counter
hvac_prefetch_deduped_total 84
# HELP hvac_prefetch_dedup_inflight Paths with a fetch in flight
# TYPE hvac_prefetch_dedup_inflight gauge
hvac_prefetch_dedup_inflight 85
# HELP hvac_stall_reads Intercepted reads attributed
# TYPE hvac_stall_reads counter
hvac_stall_reads_total 264
# HELP hvac_stall_seconds Intercepted-read wall time by stall bucket
# TYPE hvac_stall_seconds counter
hvac_stall_seconds_total{bucket="local_hit"} 2.68e-07
hvac_stall_seconds_total{bucket="remote_rpc"} 2.7e-07
hvac_stall_seconds_total{bucket="pfs_wait"} 2.72e-07
hvac_stall_seconds_total{bucket="backpressure"} 2.74e-07
hvac_stall_seconds_total{bucket="retry"} 2.76e-07
# HELP hvac_op_latency_seconds Per-op handler latency
# TYPE hvac_op_latency_seconds histogram
hvac_op_latency_seconds_bucket{op="open",le="2e-09"} 143
hvac_op_latency_seconds_bucket{op="open",le="4e-09"} 287
hvac_op_latency_seconds_bucket{op="open",le="8e-09"} 432
hvac_op_latency_seconds_bucket{op="open",le="1.6e-08"} 578
hvac_op_latency_seconds_bucket{op="open",le="3.2e-08"} 725
hvac_op_latency_seconds_bucket{op="open",le="6.4e-08"} 873
hvac_op_latency_seconds_bucket{op="open",le="1.28e-07"} 1022
hvac_op_latency_seconds_bucket{op="open",le="2.56e-07"} 1172
hvac_op_latency_seconds_bucket{op="open",le="5.12e-07"} 1323
hvac_op_latency_seconds_bucket{op="open",le="1.024e-06"} 1475
hvac_op_latency_seconds_bucket{op="open",le="2.048e-06"} 1628
hvac_op_latency_seconds_bucket{op="open",le="4.096e-06"} 1782
hvac_op_latency_seconds_bucket{op="open",le="8.192e-06"} 1937
hvac_op_latency_seconds_bucket{op="open",le="1.6384e-05"} 2093
hvac_op_latency_seconds_bucket{op="open",le="3.2768e-05"} 2250
hvac_op_latency_seconds_bucket{op="open",le="6.5536e-05"} 2408
hvac_op_latency_seconds_bucket{op="open",le="0.000131072"} 2567
hvac_op_latency_seconds_bucket{op="open",le="0.000262144"} 2727
hvac_op_latency_seconds_bucket{op="open",le="0.000524288"} 2888
hvac_op_latency_seconds_bucket{op="open",le="0.001048576"} 3050
hvac_op_latency_seconds_bucket{op="open",le="0.002097152"} 3213
hvac_op_latency_seconds_bucket{op="open",le="0.004194304"} 3377
hvac_op_latency_seconds_bucket{op="open",le="0.008388608"} 3542
hvac_op_latency_seconds_bucket{op="open",le="0.016777216"} 3708
hvac_op_latency_seconds_bucket{op="open",le="0.033554432"} 3875
hvac_op_latency_seconds_bucket{op="open",le="0.067108864"} 4043
hvac_op_latency_seconds_bucket{op="open",le="0.134217728"} 4212
hvac_op_latency_seconds_bucket{op="open",le="0.268435456"} 4382
hvac_op_latency_seconds_bucket{op="open",le="0.536870912"} 4553
hvac_op_latency_seconds_bucket{op="open",le="1.07374182"} 4725
hvac_op_latency_seconds_bucket{op="open",le="2.14748365"} 4898
hvac_op_latency_seconds_bucket{op="open",le="4.2949673"} 5072
hvac_op_latency_seconds_bucket{op="open",le="8.58993459"} 5247
hvac_op_latency_seconds_bucket{op="open",le="17.1798692"} 5423
hvac_op_latency_seconds_bucket{op="open",le="34.3597384"} 5600
hvac_op_latency_seconds_bucket{op="open",le="68.7194767"} 5778
hvac_op_latency_seconds_bucket{op="open",le="137.438953"} 5957
hvac_op_latency_seconds_bucket{op="open",le="274.877907"} 6137
hvac_op_latency_seconds_bucket{op="open",le="549.755814"} 6318
hvac_op_latency_seconds_bucket{op="open",le="+Inf"} 6500
hvac_op_latency_seconds_sum{op="open"} 1.83e-07
hvac_op_latency_seconds_count{op="open"} 6500
hvac_op_latency_seconds_bucket{op="read",le="2e-09"} 184
hvac_op_latency_seconds_bucket{op="read",le="4e-09"} 369
hvac_op_latency_seconds_bucket{op="read",le="8e-09"} 555
hvac_op_latency_seconds_bucket{op="read",le="1.6e-08"} 742
hvac_op_latency_seconds_bucket{op="read",le="3.2e-08"} 930
hvac_op_latency_seconds_bucket{op="read",le="6.4e-08"} 1119
hvac_op_latency_seconds_bucket{op="read",le="1.28e-07"} 1309
hvac_op_latency_seconds_bucket{op="read",le="2.56e-07"} 1500
hvac_op_latency_seconds_bucket{op="read",le="5.12e-07"} 1692
hvac_op_latency_seconds_bucket{op="read",le="1.024e-06"} 1885
hvac_op_latency_seconds_bucket{op="read",le="2.048e-06"} 2079
hvac_op_latency_seconds_bucket{op="read",le="4.096e-06"} 2274
hvac_op_latency_seconds_bucket{op="read",le="8.192e-06"} 2470
hvac_op_latency_seconds_bucket{op="read",le="1.6384e-05"} 2667
hvac_op_latency_seconds_bucket{op="read",le="3.2768e-05"} 2865
hvac_op_latency_seconds_bucket{op="read",le="6.5536e-05"} 3064
hvac_op_latency_seconds_bucket{op="read",le="0.000131072"} 3264
hvac_op_latency_seconds_bucket{op="read",le="0.000262144"} 3465
hvac_op_latency_seconds_bucket{op="read",le="0.000524288"} 3667
hvac_op_latency_seconds_bucket{op="read",le="0.001048576"} 3870
hvac_op_latency_seconds_bucket{op="read",le="0.002097152"} 4074
hvac_op_latency_seconds_bucket{op="read",le="0.004194304"} 4279
hvac_op_latency_seconds_bucket{op="read",le="0.008388608"} 4485
hvac_op_latency_seconds_bucket{op="read",le="0.016777216"} 4692
hvac_op_latency_seconds_bucket{op="read",le="0.033554432"} 4900
hvac_op_latency_seconds_bucket{op="read",le="0.067108864"} 5109
hvac_op_latency_seconds_bucket{op="read",le="0.134217728"} 5319
hvac_op_latency_seconds_bucket{op="read",le="0.268435456"} 5530
hvac_op_latency_seconds_bucket{op="read",le="0.536870912"} 5742
hvac_op_latency_seconds_bucket{op="read",le="1.07374182"} 5955
hvac_op_latency_seconds_bucket{op="read",le="2.14748365"} 6169
hvac_op_latency_seconds_bucket{op="read",le="4.2949673"} 6384
hvac_op_latency_seconds_bucket{op="read",le="8.58993459"} 6600
hvac_op_latency_seconds_bucket{op="read",le="17.1798692"} 6817
hvac_op_latency_seconds_bucket{op="read",le="34.3597384"} 7035
hvac_op_latency_seconds_bucket{op="read",le="68.7194767"} 7254
hvac_op_latency_seconds_bucket{op="read",le="137.438953"} 7474
hvac_op_latency_seconds_bucket{op="read",le="274.877907"} 7695
hvac_op_latency_seconds_bucket{op="read",le="549.755814"} 7917
hvac_op_latency_seconds_bucket{op="read",le="+Inf"} 8140
hvac_op_latency_seconds_sum{op="read"} 2.24e-07
hvac_op_latency_seconds_count{op="read"} 8140
# EOF
)golden";

struct Family {
  std::string type;
  std::string help;
  std::vector<std::string> samples;
  bool operator==(const Family&) const = default;
};

// family -> {TYPE, HELP, sample lines}; family order is not part of
// the format.
std::map<std::string, Family> parse_families(const std::string& text) {
  std::map<std::string, Family> out;
  Family* cur = nullptr;
  for (const std::string& line : split_lines(text)) {
    if (line == "# EOF") break;
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      const size_t name_end = line.find(' ', 7);
      cur = &out[line.substr(7, name_end - 7)];
      (line[2] == 'H' ? cur->help : cur->type) = line.substr(name_end + 1);
    } else if (cur != nullptr) {
      cur->samples.push_back(line);
    }
  }
  return out;
}

TEST(OpenMetricsGolden, FamiliesMatchTheGolden) {
  const auto want = parse_families(kGoldenOpenMetrics);
  const auto got =
      parse_families(server::render_openmetrics(golden::frame()));
  for (const auto& [name, family] : want) {
    auto it = got.find(name);
    ASSERT_NE(it, got.end()) << name;
    EXPECT_EQ(it->second.type, family.type) << name;
    EXPECT_EQ(it->second.help, family.help) << name;
    EXPECT_EQ(it->second.samples, family.samples) << name;
  }
  // The only families the golden may lack: the journal-replay gauges.
  const core::WriteBackStats wb = golden::frame().write_back;
  const std::map<std::string, uint64_t> allowed = {
      {"hvac_write_back_replay_writes", wb.replay_writes},
      {"hvac_write_back_replay_bytes", wb.replay_bytes},
      {"hvac_write_back_replay_truncated_bytes", wb.replay_truncated_bytes},
      {"hvac_write_back_replay_dirty_files", wb.replay_dirty_files},
  };
  for (const auto& [name, family] : got) {
    if (want.count(name) != 0) continue;
    auto it = allowed.find(name);
    ASSERT_NE(it, allowed.end()) << "unexpected family " << name;
    EXPECT_EQ(family.type, "gauge") << name;
    EXPECT_FALSE(family.help.empty()) << name;
    EXPECT_EQ(family.samples,
              std::vector<std::string>{name + " " + std::to_string(it->second)});
  }
}

// `hvacctl metrics --families`, which scripts/check_openmetrics.py
// requires of a live scrape, lists exactly the families the exporter
// renders, in exposition order.
TEST(OpenMetrics, FamilyListMatchesTheScrape) {
  std::vector<std::string> rendered;
  for (const std::string& line :
       split_lines(server::render_openmetrics(golden::frame()))) {
    if (line.rfind("# TYPE ", 0) == 0) {
      rendered.push_back(line.substr(7, line.find(' ', 7) - 7));
    }
  }
  EXPECT_EQ(rendered, core::openmetrics_families());
}

TEST(OpenMetrics, JournalReplayGaugesRenderFromTheTable) {
  const core::WriteBackStats wb = golden::frame().write_back;
  const std::string body = server::render_openmetrics(golden::frame());
  for (const auto& [name, value] :
       std::map<std::string, uint64_t>{
           {"hvac_write_back_replay_writes", wb.replay_writes},
           {"hvac_write_back_replay_bytes", wb.replay_bytes},
           {"hvac_write_back_replay_truncated_bytes",
            wb.replay_truncated_bytes},
           {"hvac_write_back_replay_dirty_files", wb.replay_dirty_files}}) {
    EXPECT_NE(body.find("# TYPE " + name + " gauge\n" + name + " " +
                        std::to_string(value) + "\n"),
              std::string::npos)
        << name;
  }
}

TEST(TimeSeriesHostile, TruncatedAndFlippedPayloadsDecodeSafely) {
  TimeSeriesRing ring(4);
  for (uint64_t t = 1; t <= 3; ++t) {
    ring.push(TimeSeriesSample{t * 1000, 1000, golden::frame()});
  }
  const Bytes full = ring.encode(1000);
  for (size_t len = 0; len < full.size(); ++len) {
    SCOPED_TRACE(len);
    const auto got =
        TimeSeriesFrame::decode(Bytes(full.begin(), full.begin() + len));
    if (!got.ok()) continue;  // header cut short
    ASSERT_LE(got->samples.size(), 3u);
    for (const TimeSeriesSample& s : got->samples) {
      golden::expect_golden_or_zero(s.delta, golden::frame());
    }
  }
  for (size_t i = 0; i < full.size(); ++i) {
    for (uint8_t mask : {0x01, 0x80, 0xff}) {
      Bytes damaged = full;
      damaged[i] ^= mask;
      const auto got = TimeSeriesFrame::decode(damaged);
      EXPECT_TRUE(!got.ok() || got->samples.size() <= 3u);
    }
  }
}

// ---- live HTTP scrape -----------------------------------------------------

std::string http_get(uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) break;
    sent += size_t(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {  // server closes after one response
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, size_t(n));
  }
  ::close(fd);
  return response;
}

TEST(PromExporter, ServesLiveScrapeOnEphemeralPort) {
  server::PromExporter exporter(0, [] { return frame_with(77); });
  ASSERT_TRUE(exporter.start().ok());
  ASSERT_NE(exporter.port(), 0);

  const std::string response = http_get(exporter.port(), "/metrics");
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK", 0), 0u) << response;
  EXPECT_NE(
      response.find(
          "application/openmetrics-text; version=1.0.0; charset=utf-8"),
      std::string::npos);
  const size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = response.substr(body_at + 4);
  EXPECT_NE(body.find("hvac_cache_hits_total 77"), std::string::npos);
  EXPECT_EQ(body.substr(body.size() - 6), "# EOF\n");

  // Anything but /metrics is a 404; the exporter survives to serve the
  // next scrape.
  const std::string missing = http_get(exporter.port(), "/other");
  EXPECT_EQ(missing.rfind("HTTP/1.1 404", 0), 0u) << missing;
  const std::string again = http_get(exporter.port(), "/metrics");
  EXPECT_EQ(again.rfind("HTTP/1.1 200 OK", 0), 0u);

  exporter.stop();
}

// ---- collector, exporter and traffic at once -------------------------------

// Frame assembly runs on the collector threads (every few ms here), the
// exporter thread and the kTimeSeries handler while a client drives
// traffic — the suite's TSan leg watches these for races.
TEST(TelemetryLive, CollectorExporterAndTrafficRunTogether) {
  namespace fs = std::filesystem;
  const std::string suffix = std::to_string(::getpid());
  const std::string pfs_root = ::testing::TempDir() + "hvac_tl_pfs_" + suffix;
  const std::string cache_root =
      ::testing::TempDir() + "hvac_tl_cache_" + suffix;
  fs::remove_all(pfs_root);
  fs::remove_all(cache_root);
  auto tree = workload::generate_tree(
      pfs_root, workload::synthetic_small(16, 4096, 0.3));
  ASSERT_TRUE(tree.ok());

  server::NodeRuntimeOptions o;
  o.pfs_root = pfs_root;
  o.cache_root = cache_root;
  o.instances = 2;
  ::setenv("HVAC_TS_INTERVAL_MS", "5", 1);
  server::NodeRuntime node(o);
  ::unsetenv("HVAC_TS_INTERVAL_MS");
  ASSERT_TRUE(node.start().ok());
  server::PromExporter exporter(0, [&node] { return node.aggregated_frame(); });
  ASSERT_TRUE(exporter.start().ok());

  std::atomic<bool> stop{false};
  std::thread traffic([&] {
    client::HvacClientOptions copts;
    copts.dataset_dir = pfs_root;
    copts.server_endpoints = node.endpoints();
    client::HvacClient client(copts);
    std::vector<uint8_t> buf(4096);
    while (!stop.load()) {
      for (const auto& rel : tree->relative_paths) {
        auto vfd = client.open(pfs_root + "/" + rel);
        if (!vfd.ok()) continue;
        (void)client.read(*vfd, buf.data(), buf.size());
        (void)client.close(*vfd);
      }
    }
  });

  rpc::RpcClient direct(rpc::Endpoint{node.endpoints()[0]},
                        rpc::RpcClientOptions{2000, 10000});
  uint64_t pushed = 0;
  for (int i = 0; i < 20; ++i) {
    const std::string scrape = http_get(exporter.port(), "/metrics");
    EXPECT_NE(scrape.find("hvac_cache_hits_total "), std::string::npos);
    auto resp = direct.call(proto::kTimeSeries, Bytes{});
    ASSERT_TRUE(resp.ok());
    auto ts = TimeSeriesFrame::decode(*resp);
    ASSERT_TRUE(ts.ok());
    pushed = ts->total;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  traffic.join();
  exporter.stop();
  node.stop();
  EXPECT_GT(pushed, 0u);  // the collector ticked while traffic ran
  fs::remove_all(pfs_root);
  fs::remove_all(cache_root);
}

}  // namespace
}  // namespace hvac
