// Tests for the clairvoyant prefetch pipeline: the adaptive read-ahead
// policy's synthetic-trace behaviour, data-mover dedup coalescing
// under fault injection (N waiters share exactly one fetch and one
// error), token-bucket pacing determinism, late / hit-after-prefetch
// accounting, mover-backpressure shed handling, and the N-client
// warm-up single-PFS-fetch guarantee.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "client/hvac_client.h"
#include "client/prefetch_scheduler.h"
#include "client/readahead_policy.h"
#include "common/fault_injection.h"
#include "core/cache_manager.h"
#include "core/data_mover.h"
#include "core/eviction.h"
#include "server/hvac_server.h"
#include "server/node_runtime.h"
#include "storage/pfs_backend.h"
#include "storage/posix_file.h"
#include "storage/throttle.h"
#include "workload/dataset_spec.h"
#include "workload/file_tree.h"

namespace hvac {
namespace {

namespace fs = std::filesystem;
using client::HvacClient;
using client::HvacClientOptions;
using client::PrefetchScheduler;
using client::PrefetchSchedulerOptions;
using client::ReadAheadPolicy;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "hvac_prefetch_" + name +
                          "_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

Result<std::vector<uint8_t>> read_whole(HvacClient& client,
                                        const std::string& path) {
  HVAC_ASSIGN_OR_RETURN(int vfd, client.open(path));
  std::vector<uint8_t> data;
  std::vector<uint8_t> buf(1 << 16);
  for (;;) {
    HVAC_ASSIGN_OR_RETURN(size_t n, client.read(vfd, buf.data(),
                                                buf.size()));
    if (n == 0) break;
    data.insert(data.end(), buf.begin(), buf.begin() + n);
  }
  HVAC_RETURN_IF_ERROR(client.close(vfd));
  return data;
}

// ---- adaptive read-ahead policy (pure state machine) ---------------------

TEST(ReadAheadPolicy, FastGapsGrowDepthToMax) {
  ReadAheadPolicy p;
  ASSERT_EQ(p.depth, 2u);
  // The app consumes chunks every 0.1 ms — far faster than a fetch
  // round trip — so the window must deepen one step per hit.
  for (int i = 0; i < 32; ++i) p.on_sequential(100'000);
  EXPECT_EQ(p.depth, p.max_depth);
  EXPECT_LT(p.avg_gap_ns, p.slow_gap_ns);
}

TEST(ReadAheadPolicy, SlowGapsHoldDepth) {
  ReadAheadPolicy p;
  // Compute-bound: 10 ms between reads. The current window already
  // hides the fetch, so depth must not grow.
  for (int i = 0; i < 32; ++i) p.on_sequential(10'000'000);
  EXPECT_EQ(p.depth, 2u);
  EXPECT_GE(p.avg_gap_ns, p.slow_gap_ns);
}

TEST(ReadAheadPolicy, MissHalvesAndFloorsAtMin) {
  ReadAheadPolicy p;
  for (int i = 0; i < 32; ++i) p.on_sequential(100'000);
  ASSERT_EQ(p.depth, p.max_depth);
  p.on_miss();
  EXPECT_EQ(p.depth, p.max_depth / 2);
  for (int i = 0; i < 10; ++i) p.on_miss();
  EXPECT_EQ(p.depth, p.min_depth);
}

TEST(ReadAheadPolicy, SyntheticTraceSeekThenScanRecovers) {
  ReadAheadPolicy p;
  // Scan phase: grow. Seek breaks the pattern: halve. Resumed scan
  // with fast gaps re-grows to max — the EWMA keeps the gap estimate
  // below the slow threshold throughout.
  for (int i = 0; i < 10; ++i) p.on_sequential(200'000);
  const uint32_t grown = p.depth;
  EXPECT_GT(grown, 2u);
  p.on_miss();
  EXPECT_EQ(p.depth, grown / 2);
  for (int i = 0; i < 32; ++i) p.on_sequential(200'000);
  EXPECT_EQ(p.depth, p.max_depth);
}

// ---- data-mover dedup under fault injection ------------------------------

struct MoverFixture {
  std::string pfs_root;
  std::string cache_root;
  std::unique_ptr<storage::PfsBackend> pfs;
  std::unique_ptr<core::CacheManager> cache;

  explicit MoverFixture(const std::string& name) {
    pfs_root = temp_dir(name + "_pfs");
    cache_root = temp_dir(name + "_cache");
    pfs = std::make_unique<storage::PfsBackend>(pfs_root);
    cache = std::make_unique<core::CacheManager>(
        pfs.get(), std::make_unique<storage::LocalStore>(cache_root, 0),
        core::make_eviction_policy("random"));
  }

  void put_pfs_file(const std::string& rel, size_t size, uint8_t fill) {
    std::vector<uint8_t> data(size, fill);
    ASSERT_TRUE(storage::write_file(pfs_root + "/" + rel, data.data(),
                                    data.size())
                    .ok());
  }
};

class DataMoverDedup : public ::testing::Test {
 protected:
  void TearDown() override { fault::reset(); }
};

TEST_F(DataMoverDedup, CoalescedSubmitsShareOneFetch) {
  MoverFixture fx("dedup_ok");
  fx.put_pfs_file("a.bin", 4096, 0x5a);
  // Hold the first (and only) PFS open long enough that every later
  // submit provably lands while the fetch is in flight.
  ASSERT_TRUE(fault::configure("pfs_read:delay_ms=100:count=1").ok());

  core::DataMover mover(fx.cache.get(), /*movers=*/2);
  constexpr int kWaiters = 8;
  std::vector<std::shared_future<Result<bool>>> futs;
  for (int i = 0; i < kWaiters; ++i) futs.push_back(mover.submit("a.bin"));
  for (auto& f : futs) {
    const Result<bool> r = f.get();
    ASSERT_TRUE(r.ok()) << r.error().message;
    EXPECT_TRUE(*r);
  }
  EXPECT_EQ(mover.dedup_coalesced(), static_cast<uint64_t>(kWaiters - 1));
  // One PFS copy served all eight waiters.
  EXPECT_EQ(fx.pfs->bytes_read(), 4096u);
  EXPECT_EQ(fx.cache->metrics().misses, 1u);
}

TEST_F(DataMoverDedup, CoalescedWaitersSeeTheErrorExactlyOnce) {
  MoverFixture fx("dedup_err");
  fx.put_pfs_file("a.bin", 4096, 0x5a);
  // The delay pins the fetch in flight while the waiters coalesce;
  // the error rule fails it. Every shared future must observe the
  // SAME single injected error — not one error per waiter.
  ASSERT_TRUE(
      fault::configure("pfs_read:delay_ms=100:count=1;pfs_read:error=io")
          .ok());

  core::DataMover mover(fx.cache.get(), /*movers=*/2);
  constexpr int kWaiters = 8;
  std::vector<std::shared_future<Result<bool>>> futs;
  for (int i = 0; i < kWaiters; ++i) futs.push_back(mover.submit("a.bin"));
  for (auto& f : futs) {
    const Result<bool> r = f.get();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::kIoError);
  }
  EXPECT_EQ(mover.dedup_coalesced(), static_cast<uint64_t>(kWaiters - 1));
  // The single coalesced fetch hit the injection exactly once, and no
  // PFS payload bytes moved.
  EXPECT_EQ(fault::stats(fault::Site::kPfsRead).errors, 1u);
  EXPECT_EQ(fx.pfs->bytes_read(), 0u);

  // The failure is not sticky: once the fault clears, a fresh submit
  // (the in-flight entry was retired with the error) succeeds.
  fault::reset();
  const Result<bool> retry = mover.fetch("a.bin");
  ASSERT_TRUE(retry.ok()) << retry.error().message;
  EXPECT_TRUE(*retry);
  EXPECT_EQ(fx.pfs->bytes_read(), 4096u);
}

TEST_F(DataMoverDedup, StoreReadFaultOnWarmFileFailsOpenToPfs) {
  MoverFixture fx("dedup_store");
  fx.put_pfs_file("a.bin", 4096, 0x5a);
  core::DataMover mover(fx.cache.get(), /*movers=*/1);
  const Result<bool> warm = mover.fetch("a.bin");
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(*warm);

  // The cached copy turns unreadable (NVMe EIO). Concurrent coalesced
  // warm-up answers must not wedge, and demand reads still see data
  // via the PFS path once the fault clears.
  ASSERT_TRUE(fault::configure("store_read:error=io").ok());
  std::vector<std::shared_future<Result<bool>>> futs;
  for (int i = 0; i < 4; ++i) futs.push_back(mover.submit("a.bin"));
  for (auto& f : futs) {
    const Result<bool> r = f.get();  // already cached: stat-only path
    ASSERT_TRUE(r.ok()) << r.error().message;
  }
  fault::reset();
  const auto data = fx.cache->read_through("a.bin");
  ASSERT_TRUE(data.ok()) << data.error().message;
  EXPECT_EQ(data->size(), 4096u);
}

// ---- mover concurrency (HVAC(4×1)) ---------------------------------------

TEST(DataMoverConcurrency, FourMoversOverlapMetadataLatency) {
  const std::string pfs_root = temp_dir("overlap_pfs");
  for (int i = 0; i < 8; ++i) {
    std::vector<uint8_t> data(4096, uint8_t(i));
    ASSERT_TRUE(storage::write_file(pfs_root + "/f" + std::to_string(i),
                                    data.data(), data.size())
                    .ok());
  }
  storage::PfsOptions po;
  po.metadata_latency_us = 20'000;
  storage::PfsBackend pfs(pfs_root, po);
  core::CacheManager cache(
      &pfs,
      std::make_unique<storage::LocalStore>(temp_dir("overlap_cache"), 0),
      core::make_eviction_policy("random"));
  core::DataMover mover(&cache, /*movers=*/4);

  // A serial mover pays 8 × 20 ms = 160 ms; four overlap to ~40 ms.
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::shared_future<Result<bool>>> futs;
  for (int i = 0; i < 8; ++i) {
    futs.push_back(mover.submit("f" + std::to_string(i)));
  }
  for (auto& f : futs) ASSERT_TRUE(f.get().value());
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  EXPECT_LT(ms, 100.0);
  EXPECT_EQ(pfs.metadata_ops(), 8u);
}

TEST(DataMoverConcurrency, FullStoreEvictsInsteadOfFallingBack) {
  // 32 files, a store that holds 8, four movers and 32 concurrent
  // fetches. Capacity is reserved before each copy, so every fetch
  // evicts its way in — none falls back to the PFS — and the store
  // never accounts more than its capacity.
  constexpr size_t kFile = 64u << 10;
  constexpr uint64_t kCapacity = 8 * kFile;
  const std::string pfs_root = temp_dir("room_pfs");
  for (int i = 0; i < 32; ++i) {
    std::vector<uint8_t> data(kFile, uint8_t(i));
    ASSERT_TRUE(storage::write_file(pfs_root + "/f" + std::to_string(i),
                                    data.data(), data.size())
                    .ok());
  }
  // A throttled PFS stretches each copy (~1 ms) so the movers' copies
  // overlap while the store is full.
  storage::PfsOptions po;
  po.bandwidth_bytes_per_sec = 64.0 * (1u << 20);
  po.burst_bytes = kFile;
  storage::PfsBackend pfs(pfs_root, po);
  core::CacheManager cache(
      &pfs,
      std::make_unique<storage::LocalStore>(temp_dir("room_cache"),
                                            kCapacity),
      core::make_eviction_policy("random"));
  storage::LocalStore& store = cache.store();

  std::atomic<bool> done{false};
  std::atomic<uint64_t> samples{0}, over{0};
  std::thread sampler([&] {
    while (!done.load()) {
      if (store.bytes_used() > kCapacity) over.fetch_add(1);
      samples.fetch_add(1);
      std::this_thread::yield();
    }
  });
  {
    core::DataMover mover(&cache, /*movers=*/4);
    std::vector<std::shared_future<Result<bool>>> futs;
    for (int i = 0; i < 32; ++i) {
      futs.push_back(mover.submit("f" + std::to_string(i)));
    }
    size_t fallbacks = 0;
    for (auto& f : futs) {
      const Result<bool> r = f.get();
      ASSERT_TRUE(r.ok()) << r.error().message;
      if (!*r) ++fallbacks;
    }
    EXPECT_EQ(fallbacks, 0u);
  }
  done = true;
  sampler.join();
  EXPECT_GT(samples.load(), 0u);
  EXPECT_EQ(over.load(), 0u);
  EXPECT_EQ(cache.metrics().misses, 32u);
  EXPECT_EQ(cache.metrics().pfs_fallbacks, 0u);
  EXPECT_EQ(store.reserved_bytes(), 0u);
  EXPECT_LE(store.bytes_used(), kCapacity);
  EXPECT_EQ(store.bytes_used(), store.entry_count() * kFile);
}

// ---- token-bucket pacing -------------------------------------------------

TEST(PrefetchPacing, TokenBucketWaitIsDeterministic) {
  // 10 kB/s with a 4 kB burst: the burst is free, the next 4 kB must
  // wait ~0.4 s. would_wait_seconds is the pure (non-blocking) probe
  // the scheduler uses for accounting.
  storage::TokenBucket bucket(10'000.0, 4'000.0);
  EXPECT_DOUBLE_EQ(bucket.would_wait_seconds(4'000), 0.0);
  bucket.acquire(4'000);  // drains the burst without blocking
  const double wait = bucket.would_wait_seconds(4'000);
  EXPECT_GE(wait, 0.3);
  EXPECT_LE(wait, 0.45);
}

// ---- scheduler end-to-end ------------------------------------------------

// One compute node (two server instances) over a generated dataset;
// `metadata_latency_us` models a congested PFS so fetches take real
// time and the prefetch/access race has a deterministic winner.
struct PrefetchCluster {
  std::string pfs_root;
  std::string cache_root;
  workload::GeneratedTree tree;
  std::unique_ptr<server::NodeRuntime> node;
  std::vector<std::string> abs_paths;

  PrefetchCluster(const std::string& name, uint64_t files,
                  uint64_t mean_bytes, uint32_t metadata_latency_us = 0) {
    pfs_root = temp_dir(name + "_pfs");
    cache_root = temp_dir(name + "_cache");
    auto generated = workload::generate_tree(
        pfs_root, workload::synthetic_small(files, mean_bytes, 0.0));
    EXPECT_TRUE(generated.ok());
    tree = std::move(generated).value();

    server::NodeRuntimeOptions o;
    o.pfs_root = pfs_root;
    o.pfs_options.metadata_latency_us = metadata_latency_us;
    o.cache_root = cache_root;
    o.instances = 2;
    o.data_mover_threads = 2;
    node = std::make_unique<server::NodeRuntime>(o);
    EXPECT_TRUE(node->start().ok());
    for (const auto& rel : tree.relative_paths) {
      abs_paths.push_back(pfs_root + "/" + rel);
    }
  }

  ~PrefetchCluster() {
    if (node) node->stop();
  }

  HvacClientOptions client_options() const {
    HvacClientOptions o;
    o.dataset_dir = pfs_root;
    o.server_endpoints = node->endpoints();
    // These tests assert exact PFS byte / miss counts attributable to
    // the scheduler; keep the per-fd read-ahead out of the picture.
    o.readahead_chunks = 0;
    return o;
  }
};

TEST(PrefetchSchedulerE2E, PlanWarmsEverySampleBeforeAccess) {
  PrefetchCluster cx("warm", 24, 4096);
  HvacClientOptions copts = cx.client_options();
  copts.prefetch_depth = 256;  // window covers the whole epoch
  HvacClient client(copts);

  client.set_access_plan(cx.abs_paths);
  PrefetchScheduler* pf = client.prefetch_scheduler();
  ASSERT_NE(pf, nullptr);
  pf->wait_caught_up();

  PrefetchScheduler::Stats s = pf->stats();
  EXPECT_EQ(s.planned, 24u);
  EXPECT_EQ(s.issued, 24u);
  EXPECT_EQ(s.completed, 24u);
  EXPECT_EQ(s.shed, 0u);
  // Warm-up copied every sample exactly once from the PFS.
  EXPECT_EQ(cx.node->pfs().bytes_read(), cx.tree.total_bytes);
  EXPECT_EQ(cx.node->aggregated_metrics().misses, 24u);

  // Now the epoch runs: every access in plan order is a
  // hit-after-prefetch, and the PFS sees no further reads.
  for (const auto& path : cx.abs_paths) {
    const auto data = read_whole(client, path);
    ASSERT_TRUE(data.ok()) << data.error().message;
  }
  s = pf->stats();
  EXPECT_EQ(s.hit_after_prefetch, 24u);
  EXPECT_EQ(s.late, 0u);
  EXPECT_EQ(s.cursor, 24u);
  EXPECT_EQ(cx.node->pfs().bytes_read(), cx.tree.total_bytes);
}

TEST(PrefetchSchedulerE2E, PacingMetersIssueRateDeterministically) {
  PrefetchCluster cx("paced", 12, 1024);
  HvacClient client(cx.client_options());

  // Standalone scheduler so the test controls the pacing estimate:
  // 12 samples at 1000 "bytes" each against a 10 kB/s bucket with a
  // 4 kB burst (batch_size * est). Batch 1 rides the burst; batches 2
  // and 3 each stall ~0.4 s.
  PrefetchSchedulerOptions po;
  po.depth = 64;
  po.batch_size = 4;
  po.bw_mbps = 0.01;  // 10 kB/s
  po.est_sample_bytes = 1000;
  PrefetchScheduler sched(&client, po);

  const auto t0 = std::chrono::steady_clock::now();
  sched.set_plan(std::vector<std::string>(cx.tree.relative_paths));
  sched.wait_caught_up();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  sched.stop();

  const PrefetchScheduler::Stats s = sched.stats();
  EXPECT_EQ(s.planned, 12u);
  EXPECT_EQ(s.completed, 12u);
  // Two post-burst batches, ~0.4 s each, recorded in the paced-delay
  // accounting AND observable as wall-clock pacing.
  EXPECT_GE(s.paced_delay_ns, 500'000'000u);
  EXPECT_LE(s.paced_delay_ns, 3'000'000'000u);
  EXPECT_GE(elapsed, 0.5);
}

TEST(PrefetchSchedulerE2E, LateAndHitAfterPartitionPlannedAccesses) {
  // 20 ms PFS metadata latency: the first accesses run ahead of their
  // prefetches (late), the tail is warmed in time (hit-after). Every
  // planned access lands in exactly one bucket.
  PrefetchCluster cx("late", 24, 4096, /*metadata_latency_us=*/20'000);
  HvacClientOptions copts = cx.client_options();
  copts.prefetch_depth = 8;
  HvacClient client(copts);

  client.set_access_plan(cx.abs_paths);
  for (const auto& path : cx.abs_paths) {  // no wait: access immediately
    const auto data = read_whole(client, path);
    ASSERT_TRUE(data.ok()) << data.error().message;
  }
  const PrefetchScheduler::Stats s = client.prefetch_scheduler()->stats();
  EXPECT_EQ(s.cursor, 24u);
  EXPECT_EQ(s.late + s.hit_after_prefetch, 24u);
  // The very first access fires microseconds after set_access_plan
  // while the first fetch still owes >=20 ms of PFS latency.
  EXPECT_GE(s.late, 1u);
}

TEST(PrefetchSchedulerE2E, SetPlanReplacesEpochAndKeepsAccounting) {
  PrefetchCluster cx("epoch", 16, 2048);
  HvacClientOptions copts = cx.client_options();
  copts.prefetch_depth = 256;
  HvacClient client(copts);

  // Epoch 0's plan is replaced immediately — in-flight batches for it
  // must be discarded, not applied to epoch 1's entries.
  client.set_access_plan(cx.abs_paths);
  std::vector<std::string> reversed(cx.abs_paths.rbegin(),
                                    cx.abs_paths.rend());
  client.set_access_plan(reversed);
  PrefetchScheduler* pf = client.prefetch_scheduler();
  pf->wait_caught_up();
  EXPECT_EQ(pf->stats().planned, 32u);

  for (const auto& path : reversed) {
    const auto data = read_whole(client, path);
    ASSERT_TRUE(data.ok()) << data.error().message;
  }
  const PrefetchScheduler::Stats s = pf->stats();
  // Accesses against the live plan partition cleanly even though the
  // previous epoch was abandoned mid-flight.
  EXPECT_EQ(s.cursor, 16u);
  EXPECT_EQ(s.late + s.hit_after_prefetch, 16u);
}

TEST(PrefetchSchedulerE2E, ConcurrentClientsCoalesceToOnePfsFetchPerSample) {
  // The ISSUE's acceptance criterion: N clients warming the same plan
  // concurrently cost ~one PFS fetch per sample, not N. The 20 ms
  // fetch latency guarantees the clients' batches overlap in flight.
  PrefetchCluster cx("nclient", 16, 4096, /*metadata_latency_us=*/20'000);
  constexpr int kClients = 3;

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      HvacClientOptions copts = cx.client_options();
      copts.prefetch_depth = 256;
      HvacClient client(copts);
      client.set_access_plan(cx.abs_paths);
      client.prefetch_scheduler()->wait_caught_up();
    });
  }
  for (auto& t : threads) t.join();

  // Exactly one PFS copy per sample despite 3x the prefetch traffic.
  EXPECT_EQ(cx.node->pfs().bytes_read(), cx.tree.total_bytes);
  EXPECT_EQ(cx.node->aggregated_metrics().misses, 16u);
  // And the savings are attributed: the movers coalesced duplicate
  // fetches (surfaced per node via `hvacctl prefetch`).
  EXPECT_GE(cx.node->aggregated_frame().prefetch.deduped, 1u);
}

TEST(PrefetchSchedulerE2E, MoverBackpressureShedsPerPathAndRepaces) {
  // A deliberately starved instance: one mover, a 2-deep queue, 10 ms
  // per fetch. A 24-path batch must come back with per-path shed
  // statuses — NOT a transport error, NOT 24 queued fetches.
  const std::string pfs_root = temp_dir("shed_pfs");
  const std::string cache_root = temp_dir("shed_cache");
  auto generated = workload::generate_tree(
      pfs_root, workload::synthetic_small(24, 2048, 0.0));
  ASSERT_TRUE(generated.ok());

  storage::PfsOptions po;
  po.metadata_latency_us = 10'000;
  storage::PfsBackend pfs(pfs_root, po);
  server::HvacServerOptions so;
  so.cache_dir = cache_root;
  so.data_mover_threads = 1;
  so.mover_queue_capacity = 2;
  server::HvacServer server(&pfs, so);
  ASSERT_TRUE(server.start().ok());

  HvacClientOptions copts;
  copts.dataset_dir = pfs_root;
  copts.server_endpoints = {server.address()};
  copts.readahead_chunks = 0;
  HvacClient client(copts);

  const auto statuses =
      client.prefetch_batch_status(generated->relative_paths);
  ASSERT_TRUE(statuses.ok()) << statuses.error().message;
  ASSERT_EQ(statuses->size(), 24u);
  int shed = 0;
  int cached = 0;
  for (const uint8_t st : *statuses) {
    if (st == proto::kPrefetchShed) ++shed;
    if (st == proto::kPrefetchCached) ++cached;
  }
  EXPECT_GE(shed, 1);   // the queue bound held
  EXPECT_GE(cached, 1); // the accepted head still warmed

  // The scheduler turns those sheds into bounded re-paced retries:
  // wait_caught_up() terminates (no livelock on a saturated mover)
  // and the shed counter proves backpressure was exercised.
  std::vector<std::string> abs_paths;
  for (const auto& rel : generated->relative_paths) {
    abs_paths.push_back(pfs_root + "/" + rel);
  }
  HvacClientOptions copts2 = copts;
  copts2.prefetch_depth = 256;
  HvacClient client2(copts2);
  client2.set_access_plan(abs_paths);
  PrefetchScheduler* pf = client2.prefetch_scheduler();
  pf->wait_caught_up();
  const PrefetchScheduler::Stats s = pf->stats();
  EXPECT_EQ(s.planned, 24u);
  EXPECT_GE(s.shed, 1u);
  EXPECT_GE(s.completed, 1u);

  // Fail-open: shed-exhausted samples still read correctly on demand.
  const auto data = read_whole(client2, abs_paths[0]);
  ASSERT_TRUE(data.ok()) << data.error().message;
  server.stop();
}

}  // namespace
}  // namespace hvac
