// Metrics frame v2: encode/decode round trips, v1<->v2 cross-version
// decoding, histogram bucket boundaries and percentile estimation, and
// multi-instance aggregation through NodeRuntime::aggregated_frame.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "client/hvac_client.h"
#include "core/metrics.h"
#include "core/metrics_frame.h"
#include "core/metrics_schema.h"
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

using core::kLatencyBuckets;
using core::LatencyHistogram;
using core::LatencySnapshot;
using core::MetricsFrame;
using rpc::Bytes;
using rpc::WireReader;
using rpc::WireWriter;

MetricsFrame sample_frame() {
  MetricsFrame f;
  f.cache.hits = 10;
  f.cache.misses = 3;
  f.cache.dedup_waits = 1;
  f.cache.evictions = 2;
  f.cache.bytes_from_cache = 4096;
  f.cache.bytes_from_pfs = 1024;
  f.cache.pfs_fallbacks = 1;
  f.open_fds = 7;
  f.handle_cache = {5, 2, 4, 1, 3, 128};
  f.buffer_pool = {100, 90, 10, 80, 5};
  f.readahead = {40, 30, 6};
  f.zerocopy = {50, 1 << 20, 2};
  f.reactor.reactors = {{6, 100, 12, 3}, {2, 40, 0, 1}};
  // epoch, reads, total, local_hit, remote_rpc, pfs_wait, backpressure,
  // retry — buckets sum to total by construction.
  f.stall.epochs = {{1, 100, 5000, 1000, 2000, 1500, 400, 100}};
  LatencySnapshot lat;
  lat.count = 2;
  lat.total_ns = 3000;
  lat.buckets[10] = 2;
  f.op_latency[proto::kRead] = lat;
  return f;
}

TEST(MetricsFrame, EncodeDecodeRoundTrip) {
  const MetricsFrame f = sample_frame();
  const auto decoded = MetricsFrame::decode(f.encode());
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded->version, core::kFrameVersion);
  EXPECT_EQ(decoded->cache.hits, 10u);
  EXPECT_EQ(decoded->cache.misses, 3u);
  EXPECT_EQ(decoded->cache.bytes_from_cache, 4096u);
  EXPECT_EQ(decoded->open_fds, 7u);
  EXPECT_EQ(decoded->handle_cache.hits, 5u);
  EXPECT_EQ(decoded->handle_cache.pinned, 1u);
  EXPECT_EQ(decoded->handle_cache.deferred_closes, 3u);
  EXPECT_EQ(decoded->buffer_pool.leases, 100u);
  EXPECT_EQ(decoded->buffer_pool.fallback_allocs, 10u);
  EXPECT_EQ(decoded->readahead.issued, 40u);
  EXPECT_EQ(decoded->readahead.wasted, 6u);
  EXPECT_EQ(decoded->zerocopy.sendfile_sends, 50u);
  EXPECT_EQ(decoded->zerocopy.sendfile_bytes, uint64_t{1} << 20);
  EXPECT_EQ(decoded->zerocopy.short_resumes, 2u);
  ASSERT_EQ(decoded->reactor.reactors.size(), 2u);
  EXPECT_EQ(decoded->reactor.reactors[0].conns, 6u);
  EXPECT_EQ(decoded->reactor.reactors[0].requests, 100u);
  EXPECT_EQ(decoded->reactor.reactors[0].steals, 12u);
  EXPECT_EQ(decoded->reactor.reactors[1].shed, 1u);
  ASSERT_EQ(decoded->op_latency.count(proto::kRead), 1u);
  const LatencySnapshot& lat = decoded->op_latency.at(proto::kRead);
  EXPECT_EQ(lat.count, 2u);
  EXPECT_EQ(lat.total_ns, 3000u);
  EXPECT_EQ(lat.buckets[10], 2u);
  ASSERT_EQ(decoded->stall.epochs.size(), 1u);
  EXPECT_EQ(decoded->stall.epochs[0].epoch, 1u);
  EXPECT_EQ(decoded->stall.epochs[0].reads, 100u);
  EXPECT_EQ(decoded->stall.epochs[0].total_ns, 5000u);
  EXPECT_EQ(decoded->stall.epochs[0].remote_rpc_ns, 2000u);
  EXPECT_EQ(decoded->stall.epochs[0].retry_ns, 100u);
}

TEST(MetricsFrame, V1ClientDecodesV2Prefix) {
  // A v1-era decoder reads eight bare u64 words and ignores whatever
  // follows — the v2 frame must serve it the original counters.
  const MetricsFrame f = sample_frame();
  const Bytes encoded = f.encode();
  WireReader r(encoded);
  uint64_t v[8] = {0};
  for (auto& x : v) {
    auto got = r.get_u64();
    ASSERT_TRUE(got.ok());
    x = *got;
  }
  EXPECT_EQ(v[0], f.cache.hits);
  EXPECT_EQ(v[1], f.cache.misses);
  EXPECT_EQ(v[2], f.cache.dedup_waits);
  EXPECT_EQ(v[3], f.cache.evictions);
  EXPECT_EQ(v[4], f.cache.bytes_from_cache);
  EXPECT_EQ(v[5], f.cache.bytes_from_pfs);
  EXPECT_EQ(v[6], f.cache.pfs_fallbacks);
  EXPECT_EQ(v[7], f.open_fds);
}

TEST(MetricsFrame, V2ClientDecodesV1Frame) {
  // A legacy server sends exactly eight words and no magic.
  WireWriter w;
  for (uint64_t i = 1; i <= 8; ++i) w.put_u64(i * 11);
  const auto decoded = MetricsFrame::decode(w.bytes());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->version, 1u);
  EXPECT_EQ(decoded->cache.hits, 11u);
  EXPECT_EQ(decoded->cache.pfs_fallbacks, 77u);
  EXPECT_EQ(decoded->open_fds, 88u);
  // v2-only sections default to zero rather than garbage.
  EXPECT_EQ(decoded->handle_cache.hits, 0u);
  EXPECT_EQ(decoded->buffer_pool.leases, 0u);
  EXPECT_EQ(decoded->readahead.issued, 0u);
  EXPECT_TRUE(decoded->op_latency.empty());
}

TEST(MetricsFrame, TruncatedPrefixIsError) {
  WireWriter w;
  w.put_u64(1);
  EXPECT_FALSE(MetricsFrame::decode(w.bytes()).ok());
}

TEST(MetricsFrame, UnknownSectionsAndExtraFieldsAreSkipped) {
  // A frame from a *newer* build: an unknown section id, plus a
  // read-ahead section that grew an extra trailing field. Both must
  // decode cleanly with today's schema.
  WireWriter w;
  for (uint64_t i = 1; i <= 8; ++i) w.put_u64(i);
  w.put_u32(core::kMetricsFrameMagic);
  w.put_u16(3);  // a future version
  w.put_u16(2);  // two sections
  {
    WireWriter s;  // unknown section id 99
    s.put_u64(0xdeadbeef);
    w.put_u16(99);
    w.put_blob(s.bytes().data(), s.bytes().size());
  }
  {
    WireWriter s;  // read-ahead with one extra future field
    s.put_u64(4);
    s.put_u64(3);
    s.put_u64(2);
    s.put_u64(999);
    w.put_u16(core::kSectionReadAhead);
    w.put_blob(s.bytes().data(), s.bytes().size());
  }
  const auto decoded = MetricsFrame::decode(w.bytes());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->version, 3u);
  EXPECT_EQ(decoded->readahead.issued, 4u);
  EXPECT_EQ(decoded->readahead.consumed, 3u);
  EXPECT_EQ(decoded->readahead.wasted, 2u);
}

TEST(LatencyHistogramTest, BucketBoundaries) {
  EXPECT_EQ(LatencyHistogram::bucket_of(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(2), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_of(3), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_of(4), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1023), 9u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1024), 10u);
  EXPECT_EQ(LatencyHistogram::bucket_of(uint64_t{1} << 39), 39u);
  // Everything past the last bucket clamps instead of overflowing.
  EXPECT_EQ(LatencyHistogram::bucket_of(uint64_t{1} << 40),
            kLatencyBuckets - 1);
  EXPECT_EQ(LatencyHistogram::bucket_of(~uint64_t{0}), kLatencyBuckets - 1);
}

TEST(LatencyHistogramTest, RecordAndPercentiles) {
  LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.record(1000);       // bucket 9: [512, 1024)
  h.record(uint64_t{1} << 20);                       // one ~1ms outlier
  const LatencySnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.buckets[9], 99u);
  EXPECT_EQ(s.buckets[20], 1u);
  const double p50 = s.percentile_ns(50);
  EXPECT_GE(p50, 512.0);
  EXPECT_LE(p50, 1024.0);
  // p99 still lands in the dense bucket (rank 100 is the outlier).
  EXPECT_LE(s.percentile_ns(98), 1024.0);
  const double p100 = s.percentile_ns(100);
  EXPECT_GE(p100, double(uint64_t{1} << 20));
  EXPECT_GT(s.mean_ns(), 1000.0);
}

TEST(MetricsFrame, MergeSumsSections) {
  MetricsFrame a = sample_frame();
  const MetricsFrame b = sample_frame();
  a.merge(b);
  EXPECT_EQ(a.cache.hits, 20u);
  EXPECT_EQ(a.open_fds, 14u);
  EXPECT_EQ(a.handle_cache.deferred_closes, 6u);
  EXPECT_EQ(a.buffer_pool.leases, 200u);
  EXPECT_EQ(a.readahead.consumed, 60u);
  EXPECT_EQ(a.zerocopy.sendfile_sends, 100u);
  // Reactor rows merge element-wise by index (instance A reactor i +
  // instance B reactor i).
  ASSERT_EQ(a.reactor.reactors.size(), 2u);
  EXPECT_EQ(a.reactor.reactors[0].requests, 200u);
  EXPECT_EQ(a.reactor.reactors[1].conns, 4u);
  EXPECT_EQ(a.op_latency.at(proto::kRead).count, 4u);
  EXPECT_EQ(a.op_latency.at(proto::kRead).buckets[10], 4u);
  // Stall rows merge by epoch id (same epoch observed on two clients).
  ASSERT_EQ(a.stall.epochs.size(), 1u);
  EXPECT_EQ(a.stall.epochs[0].epoch, 1u);
  EXPECT_EQ(a.stall.epochs[0].reads, 200u);
  EXPECT_EQ(a.stall.epochs[0].total_ns, 10000u);
  EXPECT_EQ(a.stall.epochs[0].pfs_wait_ns, 3000u);
}

TEST(MetricsFrame, StallMergeKeepsDistinctEpochs) {
  MetricsFrame a;
  a.stall.epochs = {{1, 10, 100, 100, 0, 0, 0, 0}};
  MetricsFrame b;
  b.stall.epochs = {{1, 5, 50, 0, 50, 0, 0, 0},
                    {2, 7, 70, 0, 0, 70, 0, 0}};
  a.merge(b);
  ASSERT_EQ(a.stall.epochs.size(), 2u);
  EXPECT_EQ(a.stall.epochs[0].epoch, 1u);
  EXPECT_EQ(a.stall.epochs[0].reads, 15u);
  EXPECT_EQ(a.stall.epochs[0].total_ns, 150u);
  EXPECT_EQ(a.stall.epochs[0].remote_rpc_ns, 50u);
  EXPECT_EQ(a.stall.epochs[1].epoch, 2u);
  EXPECT_EQ(a.stall.epochs[1].pfs_wait_ns, 70u);
}

TEST(MetricsFrame, ReactorMergeHandlesRaggedCounts) {
  // Frames from servers running different reactor counts: the merged
  // row set is the longer of the two, missing rows count as zero.
  MetricsFrame a;
  a.reactor.reactors = {{1, 10, 0, 0}};
  MetricsFrame b;
  b.reactor.reactors = {{2, 20, 5, 1}, {3, 30, 6, 2}};
  a.merge(b);
  ASSERT_EQ(a.reactor.reactors.size(), 2u);
  EXPECT_EQ(a.reactor.reactors[0].conns, 3u);
  EXPECT_EQ(a.reactor.reactors[0].requests, 30u);
  EXPECT_EQ(a.reactor.reactors[1].requests, 30u);
  EXPECT_EQ(a.reactor.reactors[1].steals, 6u);
}

TEST(MetricsFrame, ReactorSectionCrossVersionRoundTrip) {
  // A reactor section from a *future* build whose rows grew a fifth
  // word: today's decoder must read the four fields it knows and skip
  // the tail of every row.
  WireWriter w;
  for (uint64_t i = 1; i <= 8; ++i) w.put_u64(i);
  w.put_u32(core::kMetricsFrameMagic);
  w.put_u16(core::kFrameVersion);
  w.put_u16(1);  // one section
  {
    WireWriter s;
    s.put_u16(2);  // two reactors
    s.put_u16(5);  // five words per row (one unknown to this build)
    for (uint64_t r = 0; r < 2; ++r) {
      s.put_u64(10 + r);  // conns
      s.put_u64(20 + r);  // requests
      s.put_u64(30 + r);  // steals
      s.put_u64(40 + r);  // shed
      s.put_u64(0xabcd);  // the future field
    }
    w.put_u16(core::kSectionReactors);
    w.put_blob(s.bytes().data(), s.bytes().size());
  }
  const auto decoded = MetricsFrame::decode(w.bytes());
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  ASSERT_EQ(decoded->reactor.reactors.size(), 2u);
  EXPECT_EQ(decoded->reactor.reactors[0].conns, 10u);
  EXPECT_EQ(decoded->reactor.reactors[1].requests, 21u);
  EXPECT_EQ(decoded->reactor.reactors[1].shed, 41u);

  // And the symmetric direction: a frame encoded by this build whose
  // sections an *older* decoder does not know — the old decode path is
  // the unknown-id skip, proven by re-encoding and checking a frame
  // with the reactor section still yields every other section intact.
  const auto again = MetricsFrame::decode(decoded->encode());
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->reactor.reactors.size(), 2u);
  EXPECT_EQ(again->reactor.reactors[0].steals, 30u);
  EXPECT_EQ(again->cache.hits, 1u);
  EXPECT_EQ(again->open_fds, 8u);
}

TEST(MetricsFrame, StallSectionCrossVersionRoundTrip) {
  // A stall section from a *future* build whose rows grew a ninth
  // word: today's decoder must read the eight fields it knows and skip
  // the tail of every row.
  WireWriter w;
  for (uint64_t i = 1; i <= 8; ++i) w.put_u64(i);
  w.put_u32(core::kMetricsFrameMagic);
  w.put_u16(core::kFrameVersion);
  w.put_u16(1);  // one section
  {
    WireWriter s;
    s.put_u16(2);  // two epochs
    s.put_u16(9);  // nine words per row (one unknown to this build)
    for (uint64_t r = 0; r < 2; ++r) {
      s.put_u64(1 + r);    // epoch
      s.put_u64(100 + r);  // reads
      s.put_u64(500 + r);  // total_ns
      s.put_u64(100);      // local_hit_ns
      s.put_u64(200);      // remote_rpc_ns
      s.put_u64(150);      // pfs_wait_ns
      s.put_u64(40);       // backpressure_ns
      s.put_u64(10 + r);   // retry_ns
      s.put_u64(0xabcd);   // the future field
    }
    w.put_u16(core::kSectionStall);
    w.put_blob(s.bytes().data(), s.bytes().size());
  }
  const auto decoded = MetricsFrame::decode(w.bytes());
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  ASSERT_EQ(decoded->stall.epochs.size(), 2u);
  EXPECT_EQ(decoded->stall.epochs[0].epoch, 1u);
  EXPECT_EQ(decoded->stall.epochs[0].reads, 100u);
  EXPECT_EQ(decoded->stall.epochs[1].total_ns, 501u);
  EXPECT_EQ(decoded->stall.epochs[1].retry_ns, 11u);

  // Re-encoding with today's schema keeps both the stall rows and the
  // legacy prefix intact.
  const auto again = MetricsFrame::decode(decoded->encode());
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->stall.epochs.size(), 2u);
  EXPECT_EQ(again->stall.epochs[1].remote_rpc_ns, 200u);
  EXPECT_EQ(again->cache.hits, 1u);
  EXPECT_EQ(again->open_fds, 8u);
}

TEST(MetricsFrame, JsonSpellsOutEverySection) {
  const std::string json = sample_frame().to_json();
  for (const char* key :
       {"\"version\":2", "\"cache\"", "\"handle_cache\"", "\"buffer_pool\"",
        "\"read_ahead\"", "\"latency_us\"", "\"read\"", "\"p50\"",
        "\"p99\"", "\"deferred_closes\":3", "\"wasted\":6",
        "\"zero_copy\"", "\"sendfile_sends\":50",
        "\"reactors\"", "\"steals\":12",
        "\"stall\"", "\"pfs_wait_s\"", "\"retry_s\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

// ---- goldens ----------------------------------------------------------------
//
// Captured from the hand-written codecs before the field table replaced
// them: golden::frame() (tests/metrics_golden.h) sets every field to a
// value of its own, so these pin each field's wire position and JSON
// spelling. A change here is a wire or output format change.

const char* const kGoldenWire =
    "0100000000000000020000000000000003000000000000000400000000000000"
    "0500000000000000060000000000000007000000000000000800000000000000"
    "48564d3202000c0001003000000009000000000000000a000000000000000b00"
    "0000000000000c000000000000000d000000000000000e000000000000000200"
    "280000000f000000000000001000000000000000110000000000000012000000"
    "0000000013000000000000000300180000001400000000000000150000000000"
    "000016000000000000000400aa020000020002006419000000000000b7000000"
    "0000000028008f00000000000000900000000000000091000000000000009200"
    "0000000000009300000000000000940000000000000095000000000000009600"
    "0000000000009700000000000000980000000000000099000000000000009a00"
    "0000000000009b000000000000009c000000000000009d000000000000009e00"
    "0000000000009f00000000000000a000000000000000a100000000000000a200"
    "000000000000a300000000000000a400000000000000a500000000000000a600"
    "000000000000a700000000000000a800000000000000a900000000000000aa00"
    "000000000000ab00000000000000ac00000000000000ad00000000000000ae00"
    "000000000000af00000000000000b000000000000000b100000000000000b200"
    "000000000000b300000000000000b400000000000000b500000000000000b600"
    "0000000000000300cc1f000000000000e0000000000000002800b80000000000"
    "0000b900000000000000ba00000000000000bb00000000000000bc0000000000"
    "0000bd00000000000000be00000000000000bf00000000000000c00000000000"
    "0000c100000000000000c200000000000000c300000000000000c40000000000"
    "0000c500000000000000c600000000000000c700000000000000c80000000000"
    "0000c900000000000000ca00000000000000cb00000000000000cc0000000000"
    "0000cd00000000000000ce00000000000000cf00000000000000d00000000000"
    "0000d100000000000000d200000000000000d300000000000000d40000000000"
    "0000d500000000000000d600000000000000d700000000000000d80000000000"
    "0000d900000000000000da00000000000000db00000000000000dc0000000000"
    "0000dd00000000000000de00000000000000df00000000000000050058000000"
    "1700000000000000180000000000000019000000000000001a00000000000000"
    "1b000000000000001c000000000000001d000000000000001e00000000000000"
    "1f00000000000000200000000000000021000000000000000600280000002200"
    "00000000000025000000000000002700000000000000e300000000000000e400"
    "0000000000000700000000000800280000002c000000000000002d0000000000"
    "00002e000000000000002f000000000000003000000000000000090064000000"
    "0200060031000000000000003200000000000000330000000000000034000000"
    "000000003500000000000000e100000000000000360000000000000037000000"
    "00000000380000000000000039000000000000003a00000000000000e2000000"
    "000000000a00a00000003b000000000000003c000000000000003d0000000000"
    "00003e000000000000003f000000000000004000000000000000410000000000"
    "0000420000000000000043000000000000004400000000000000450000000000"
    "0000460000000000000047000000000000004800000000000000490000000000"
    "00004a000000000000004b000000000000004c000000000000004d0000000000"
    "0000e5000000000000000b009a0100004e000000000000004f00000000000000"
    "5000000000000000510000000000000052000000000000005300000000000000"
    "5400000000000000550000000000000000000000000000007c10000000000000"
    "7e00000000000000280056000000000000005700000000000000580000000000"
    "000059000000000000005a000000000000005b000000000000005c0000000000"
    "00005d000000000000005e000000000000005f00000000000000600000000000"
    "0000610000000000000062000000000000006300000000000000640000000000"
    "0000650000000000000066000000000000006700000000000000680000000000"
    "000069000000000000006a000000000000006b000000000000006c0000000000"
    "00006d000000000000006e000000000000006f00000000000000700000000000"
    "0000710000000000000072000000000000007300000000000000740000000000"
    "0000750000000000000076000000000000007700000000000000780000000000"
    "000079000000000000007a000000000000007b000000000000007c0000000000"
    "00007d000000000000000c0084000000020008007f0000000000000080000000"
    "0000000081000000000000008200000000000000830000000000000084000000"
    "0000000085000000000000008600000000000000870000000000000088000000"
    "0000000089000000000000008a000000000000008b000000000000008c000000"
    "000000008d000000000000008e00000000000000";

const char* const kGoldenJson =
    "{\"version\":2,\"cache\":{\"hits\":1,\"misses\":2,\"hit_rate\":0.333333"
    ",\"dedup_waits\":3,\"evictions\":4,\"bytes_from_cache\":5"
    ",\"bytes_from_pfs\":6,\"pfs_fallbacks\":7},\"open_fds\":8"
    ",\"handle_cache\":{\"hits\":9,\"misses\":10,\"open\":11,\"pinned\":12"
    ",\"deferred_closes\":13,\"capacity\":14},\"buffer_pool\":{\"leases\":15"
    ",\"pool_hits\":16,\"fallback_allocs\":17,\"recycled\":18,\"dropped\":19}"
    ",\"read_ahead\":{\"issued\":20,\"consumed\":21,\"wasted\":22}"
    ",\"resilience\":{\"breaker_opens\":23,\"breaker_closes\":24"
    ",\"breaker_probes\":25,\"breaker_shed\":26,\"retries\":27"
    ",\"deadline_misses\":28,\"server_shed\":29,\"mover_rejects\":30"
    ",\"drains\":31,\"drained_requests\":32,\"faults_injected\":33}"
    ",\"zero_copy\":{\"sendfile_sends\":34,\"sendfile_bytes\":37"
    ",\"short_resumes\":39,\"fd_passes\":227,\"fd_pass_bytes\":228}"
    ",\"trace\":{\"emitted\":44,\"dropped\":45"
    ",\"rings\":46,\"ring_capacity\":47,\"occupancy\":48}"
    ",\"reactors\":[{\"conns\":49,\"requests\":50,\"steals\":51,\"shed\":52"
    ",\"steal_backoffs\":53,\"local_conns\":225},{\"conns\":54"
    ",\"requests\":55,\"steals\":56,\"shed\":57,\"steal_backoffs\":58"
    ",\"local_conns\":226}],\"write_back\":{\"writes\":59"
    ",\"bytes_written\":60,\"fsyncs\":61,\"dirty_bytes\":62,\"dirty_files\":63"
    ",\"journal_records\":64,\"journal_bytes\":65,\"flushed_files\":66"
    ",\"flush_retries\":67,\"flush_failures\":68,\"flush_queue_depth\":69"
    ",\"flush_inflight\":70,\"flush_lag_ms\":71,\"write_through_sheds\":72"
    ",\"write_through_bytes\":73,\"replay_writes\":74,\"replay_bytes\":75"
    ",\"replay_truncated_bytes\":76,\"replay_dirty_files\":77"
    ",\"local_write_bytes\":229}"
    ",\"prefetch\":{\"planned\":78,\"issued\":79,\"completed\":80,\"shed\":81"
    ",\"late\":82,\"hit_after_prefetch\":83,\"deduped\":84,\"dedup_inflight\":85"
    ",\"paced_delay_us\":{\"count\":4220,\"mean\":0.000,\"p50\":3919.910"
    ",\"p99\":905997581.287}},\"stall\":[{\"epoch\":127,\"reads\":128"
    ",\"stall_s\":0.000000,\"local_hit_s\":0.000000,\"remote_rpc_s\":0.000000"
    ",\"pfs_wait_s\":0.000000,\"backpressure_s\":0.000000,\"retry_s\":0.000000}"
    ",{\"epoch\":135,\"reads\":136,\"stall_s\":0.000000,\"local_hit_s\":0.000000"
    ",\"remote_rpc_s\":0.000000,\"pfs_wait_s\":0.000000"
    ",\"backpressure_s\":0.000000,\"retry_s\":0.000000}]"
    ",\"latency_us\":{\"open\":{\"count\":6500,\"mean\":0.000,\"p50\":2557.502"
    ",\"p99\":900149629.333},\"read\":{\"count\":8140,\"mean\":0.000"
    ",\"p50\":2071.452,\"p99\":894893993.011}}}";

TEST(MetricsFrameGolden, WireBytesArePinned) {
  EXPECT_EQ(golden::hex(golden::frame().encode()), kGoldenWire);
}

TEST(MetricsFrameGolden, DecodeReencodesTheGoldenBytes) {
  const auto decoded = MetricsFrame::decode(golden::frame().encode());
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(golden::hex(decoded->encode()), kGoldenWire);
  EXPECT_EQ(decoded->to_json(), kGoldenJson);
}

TEST(MetricsFrameGolden, JsonTextIsPinned) {
  EXPECT_EQ(golden::frame().to_json(), kGoldenJson);
}

// ---- the schema table, row by row ------------------------------------------

using core::FieldKind;
using core::FieldScope;
using Peers = MetricsFrame::Peers;

std::string label(const core::FieldSpec& field) {
  return std::string(field.group) + "." + field.name;
}

TEST(MetricsSchema, GoldenFrameSetsEveryRow) {
  // Keeps the goldens complete: a row the golden frame leaves at zero
  // would not be pinned by them.
  const MetricsFrame g = golden::frame();
  for (const core::FieldSpec& field : core::frame_fields()) {
    EXPECT_NE(field.get(g), 0u) << label(field);
  }
  for (const core::ReactorField& field : core::reactor_fields()) {
    EXPECT_NE(g.reactor.reactors[1].*field.member, 0u) << field.name;
  }
  for (const core::StallField& field : core::stall_fields()) {
    EXPECT_NE(g.stall.epochs[1].*field.member, 0u) << field.name;
  }
}

TEST(MetricsSchema, EveryRowRoundTripsMergesAndDeltas) {
  for (const core::FieldSpec& field : core::frame_fields()) {
    SCOPED_TRACE(label(field));
    MetricsFrame x;
    field.ref(x) = 1000;

    // Round trip: this word comes back and no other moves.
    const auto decoded = MetricsFrame::decode(x.encode());
    ASSERT_TRUE(decoded.ok());
    for (const core::FieldSpec& other : core::frame_fields()) {
      EXPECT_EQ(other.get(*decoded), &other == &field ? 1000u : 0u)
          << label(other);
    }

    // merge(x, x): sum, max, or (same process, process scope) once.
    const uint64_t folded = field.kind == FieldKind::kMaxGauge ? 1000 : 2000;
    MetricsFrame across = x;
    across.merge(x);
    EXPECT_EQ(field.get(across), folded);
    MetricsFrame shared = x;
    shared.merge(x, Peers::kSameProcess);
    EXPECT_EQ(field.get(shared),
              field.scope == FieldScope::kProcess ? 1000u : folded);

    // frame_delta(x, x): counters flat, gauges carried.
    EXPECT_EQ(field.get(core::frame_delta(x, x)),
              field.kind == FieldKind::kCounter ? 0u : 1000u);

    // Every output surface names the row.
    EXPECT_NE(x.to_json().find("\"" + std::string(field.name) + "\":1000"),
              std::string::npos);
    const std::string sample =
        std::string(field.prom) +
        (field.kind == FieldKind::kCounter ? "_total 1000\n" : " 1000\n");
    EXPECT_NE(server::render_openmetrics(x).find(sample), std::string::npos)
        << sample;
  }
}

TEST(MetricsSchema, RowSectionsRoundTripMergeAndDelta) {
  for (const core::ReactorField& field : core::reactor_fields()) {
    SCOPED_TRACE(field.name);
    MetricsFrame x;
    x.reactor.reactors.resize(2);
    x.reactor.reactors[1].*field.member = 1000;
    const auto decoded = MetricsFrame::decode(x.encode());
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded->reactor.reactors.size(), 2u);
    EXPECT_EQ(decoded->reactor.reactors[1].*field.member, 1000u);
    for (Peers peers : {Peers::kSeparateProcesses, Peers::kSameProcess}) {
      MetricsFrame m = x;
      m.merge(x, peers);  // instance scope: always summed
      EXPECT_EQ(m.reactor.reactors[1].*field.member, 2000u);
    }
    EXPECT_EQ(core::frame_delta(x, x).reactor.reactors[1].*field.member, 0u);
  }
  for (const core::StallField& field : core::stall_fields()) {
    SCOPED_TRACE(field.name);
    MetricsFrame x;
    x.stall.epochs = {{}};
    x.stall.epochs[0].*field.member = 1000;
    const auto decoded = MetricsFrame::decode(x.encode());
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded->stall.epochs.size(), 1u);
    EXPECT_EQ(decoded->stall.epochs[0].*field.member, 1000u);
    MetricsFrame across = x;
    across.merge(x);  // same epoch: the key stays, the words sum
    ASSERT_EQ(across.stall.epochs.size(), 1u);
    EXPECT_EQ(across.stall.epochs[0].*field.member,
              field.member == &core::StallEpochRow::epoch ? 1000u : 2000u);
    MetricsFrame shared = x;
    shared.merge(x, Peers::kSameProcess);  // process scope: once
    EXPECT_EQ(shared.stall.epochs[0].*field.member, 1000u);
    // Cumulative per epoch: carried, not differenced.
    EXPECT_EQ(core::frame_delta(x, x).stall.epochs[0].*field.member, 1000u);
  }

  MetricsFrame x;
  LatencySnapshot hist;
  hist.count = 3;
  hist.total_ns = 3000;
  hist.buckets[10] = 3;
  x.op_latency[proto::kRead] = hist;  // instance scope
  x.prefetch.paced_delay = hist;      // process scope
  const auto decoded = MetricsFrame::decode(x.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->op_latency.at(proto::kRead).buckets, hist.buckets);
  EXPECT_EQ(decoded->prefetch.paced_delay.total_ns, 3000u);
  MetricsFrame across = x;
  across.merge(x);
  EXPECT_EQ(across.op_latency.at(proto::kRead).count, 6u);
  EXPECT_EQ(across.prefetch.paced_delay.count, 6u);
  MetricsFrame shared = x;
  shared.merge(x, Peers::kSameProcess);
  EXPECT_EQ(shared.op_latency.at(proto::kRead).count, 6u);
  EXPECT_EQ(shared.prefetch.paced_delay.count, 3u);
  const MetricsFrame d = core::frame_delta(x, x);
  EXPECT_EQ(d.op_latency.at(proto::kRead).count, 0u);
  EXPECT_EQ(d.prefetch.paced_delay.buckets[10], 0u);
}

// ---- hostile input ----------------------------------------------------------

TEST(MetricsFrameHostile, EveryTruncationDecodesToGoldenOrZero) {
  const MetricsFrame want = golden::frame();
  const Bytes full = want.encode();
  for (size_t len = 0; len < full.size(); ++len) {
    SCOPED_TRACE(len);
    const auto got =
        MetricsFrame::decode(Bytes(full.begin(), full.begin() + len));
    if (len < 64) {  // the v1 prefix is mandatory
      EXPECT_FALSE(got.ok());
      continue;
    }
    ASSERT_TRUE(got.ok());
    golden::expect_golden_or_zero(*got, want);
  }
}

TEST(MetricsFrameHostile, EverySingleByteFlipDecodesSafely) {
  const Bytes full = golden::frame().encode();
  for (size_t i = 0; i < full.size(); ++i) {
    for (uint8_t mask : {0x01, 0x80, 0xff}) {
      Bytes damaged = full;
      damaged[i] ^= mask;
      const auto got = MetricsFrame::decode(damaged);
      ASSERT_TRUE(got.ok()) << i;  // the prefix always decodes
      // Whatever decoded stays usable by every surface.
      EXPECT_TRUE(MetricsFrame::decode(got->encode()).ok());
      EXPECT_FALSE(got->to_json().empty());
      EXPECT_FALSE(server::render_openmetrics(*got).empty());
    }
  }
}

// ---- end to end: live instances -> aggregated frame -----------------------

TEST(MetricsFrameAggregation, NodeRuntimeAggregatesInstances) {
  namespace fs = std::filesystem;
  const std::string suffix = std::to_string(::getpid());
  const std::string pfs_root = ::testing::TempDir() + "hvac_mf_pfs_" + suffix;
  const std::string cache_root =
      ::testing::TempDir() + "hvac_mf_cache_" + suffix;
  fs::remove_all(pfs_root);
  fs::remove_all(cache_root);
  const auto spec = workload::synthetic_small(12, 4096, 0.3);
  auto tree = workload::generate_tree(pfs_root, spec);
  ASSERT_TRUE(tree.ok());

  server::NodeRuntimeOptions o;
  o.pfs_root = pfs_root;
  o.cache_root = cache_root;
  o.instances = 2;
  server::NodeRuntime node(o);
  ASSERT_TRUE(node.start().ok());

  client::HvacClientOptions copts;
  copts.dataset_dir = pfs_root;
  copts.server_endpoints = node.endpoints();
  // Keep reads synchronous so no read-ahead RPC is still in flight
  // when the frames are sampled below.
  copts.readahead_chunks = 0;
  client::HvacClient client(copts);

  std::vector<uint8_t> buf(8192);
  for (const auto& rel : tree->relative_paths) {
    for (int round = 0; round < 2; ++round) {
      auto vfd = client.open(pfs_root + "/" + rel);
      ASSERT_TRUE(vfd.ok());
      ASSERT_TRUE(client.read(*vfd, buf.data(), buf.size()).ok());
      ASSERT_TRUE(client.close(*vfd).ok());
    }
  }

  // The open/read path serves whole files; store pins also sit under
  // segment reads. Hit the same segment twice on one instance so its
  // counters move deterministically (both pins use the fd the mover
  // handed to the segment's entry).
  {
    rpc::RpcClient direct(rpc::Endpoint{node.endpoints()[0]},
                          rpc::RpcClientOptions{2000, 10000});
    for (int round = 0; round < 2; ++round) {
      WireWriter w;
      w.put_string(tree->relative_paths[0]);
      w.put_u64(0);     // segment index
      w.put_u64(1024);  // segment bytes
      w.put_u64(0);     // offset in segment
      w.put_u32(512);
      ASSERT_TRUE(direct.call(proto::kReadSegment, w.bytes()).ok());
    }
  }

  const MetricsFrame total = node.aggregated_frame();
  EXPECT_EQ(total.version, core::kFrameVersion);
  // Round one misses, round two hits — across both instances — plus one
  // miss/hit pair from the segment cached above.
  EXPECT_EQ(total.cache.misses, tree->relative_paths.size() + 1);
  EXPECT_EQ(total.cache.hits, tree->relative_paths.size() + 1);
  // The segment reads were served by the entry's own fd: every pin
  // hit, and none opened per read.
  EXPECT_EQ(total.handle_cache.misses, 0u);
  EXPECT_GE(total.handle_cache.hits, 2u);
  // Every open shows up in the per-op histograms, once whether the
  // reactor or the pool answered it. The files are small enough to
  // travel inline in the open reply, so no read or close RPC follows.
  ASSERT_EQ(total.op_latency.count(proto::kOpen), 1u);
  EXPECT_EQ(total.op_latency.at(proto::kOpen).count,
            2 * tree->relative_paths.size());
  EXPECT_GT(total.op_latency.at(proto::kOpen).percentile_ns(99), 0.0);
  EXPECT_EQ(total.op_latency.count(proto::kRead), 0u);
  EXPECT_EQ(total.op_latency.count(proto::kClose), 0u);

  // Process-global sections must not double-count across the two
  // co-resident instances: the aggregate equals a single instance's
  // view, not the sum of both.
  const MetricsFrame one = node.instance(0).metrics_frame();
  EXPECT_EQ(total.buffer_pool.leases, one.buffer_pool.leases);
  EXPECT_EQ(total.readahead.issued, one.readahead.issued);
  // Every store's fd budget is the one process-wide budget.
  EXPECT_EQ(total.handle_cache.capacity, one.handle_cache.capacity);

  // The wire round trip preserves the aggregate.
  const auto decoded = MetricsFrame::decode(total.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->cache.hits, total.cache.hits);
  EXPECT_EQ(decoded->op_latency.at(proto::kOpen).count,
            total.op_latency.at(proto::kOpen).count);

  node.stop();
  fs::remove_all(pfs_root);
  fs::remove_all(cache_root);
}

}  // namespace
}  // namespace hvac
