// Metrics frame v2: encode/decode round trips, v1<->v2 cross-version
// decoding, histogram bucket boundaries and percentile estimation, and
// multi-instance aggregation through NodeRuntime::aggregated_frame.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "client/hvac_client.h"
#include "core/metrics.h"
#include "core/metrics_frame.h"
#include "rpc/rpc_client.h"
#include "rpc/wire.h"
#include "server/hvac_proto.h"
#include "server/node_runtime.h"
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
  f.zerocopy = {50, 8, 3, 1 << 20, 1 << 16, 2};
  f.meta_cache = {25, 9, 4, 2};
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
  EXPECT_EQ(decoded->meta_cache.hits, 25u);
  EXPECT_EQ(decoded->meta_cache.invalidated, 2u);
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
  EXPECT_EQ(a.meta_cache.hits, 50u);
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
        "\"meta_cache\"", "\"invalidated\":2",
        "\"reactors\"", "\"steals\":12",
        "\"stall\"", "\"pfs_wait_s\"", "\"retry_s\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
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
  // when the frames are sampled below, and disable the meta cache so
  // round two really re-opens (the exact per-op counts below depend on
  // every round hitting the server).
  copts.readahead_chunks = 0;
  copts.meta_ttl_ms = 0;
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

  // The open/read path serves whole files; the pinned-handle cache sits
  // under segment reads. Hit the same segment twice on one instance so
  // its counters move deterministically (first pin misses, second hits).
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
  // The segment reads went through the pinned-handle cache.
  EXPECT_GE(total.handle_cache.misses, 1u);
  EXPECT_GE(total.handle_cache.hits, 1u);
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
