// Tests for the HVAC core: hash placement, eviction policies, the
// cache manager's single-copy guarantee, the data-mover FIFO, and the
// client fd table.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "common/stats.h"
#include "core/cache_manager.h"
#include "core/data_mover.h"
#include "core/eviction.h"
#include "core/fd_table.h"
#include "core/placement.h"
#include "rpc/health.h"
#include "storage/posix_file.h"
#include "workload/dataset_spec.h"

namespace hvac::core {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "hvac_core_" + name +
                          "_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---- placement ------------------------------------------------------------

TEST(Placement, DeterministicAcrossInstances) {
  Placement p1(64), p2(64);
  for (int i = 0; i < 1000; ++i) {
    const std::string path = "class/" + std::to_string(i) + ".jpg";
    EXPECT_EQ(p1.home(path), p2.home(path));
  }
}

TEST(Placement, HomeInRange) {
  for (uint32_t servers : {1u, 2u, 7u, 64u, 4096u}) {
    Placement p(servers);
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(p.home("f" + std::to_string(i)), servers);
    }
  }
}

TEST(Placement, ZeroServersClampedToOne) {
  Placement p(0);
  EXPECT_EQ(p.num_servers(), 1u);
  EXPECT_EQ(p.home("anything"), 0u);
}

TEST(Placement, SingleServerAlwaysZero) {
  Placement p(1, PlacementPolicy::kRendezvous);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(p.home("f" + std::to_string(i)), 0u);
  }
}

TEST(Placement, ReplicasDistinctAndPrimaryFirst) {
  for (const auto policy :
       {PlacementPolicy::kHashModulo, PlacementPolicy::kRendezvous,
        PlacementPolicy::kJump}) {
    Placement p(16, policy, 3);
    for (int i = 0; i < 300; ++i) {
      const std::string path = "x/" + std::to_string(i);
      const auto homes = p.homes(path);
      ASSERT_EQ(homes.size(), 3u);
      EXPECT_EQ(homes[0], p.home(path));
      EXPECT_NE(homes[0], homes[1]);
      EXPECT_NE(homes[1], homes[2]);
      EXPECT_NE(homes[0], homes[2]);
    }
  }
}

TEST(Placement, ReplicasClampedToServerCount) {
  Placement p(2, PlacementPolicy::kHashModulo, 10);
  EXPECT_EQ(p.replicas(), 2u);
  EXPECT_EQ(p.homes("f").size(), 2u);
}

TEST(Placement, RendezvousMinimalDisruption) {
  // Removing one server (shrinking 17 -> 16) must only move files that
  // were homed on the removed server.
  Placement before(17, PlacementPolicy::kRendezvous);
  Placement after(16, PlacementPolicy::kRendezvous);
  int moved_wrongly = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string path = "p/" + std::to_string(i);
    const uint32_t b = before.home(path);
    const uint32_t a = after.home(path);
    if (b != 16 && a != b) ++moved_wrongly;
  }
  EXPECT_EQ(moved_wrongly, 0);
}

class PlacementBalance
    : public ::testing::TestWithParam<std::tuple<PlacementPolicy, int>> {};

TEST_P(PlacementBalance, LoadIsBalanced) {
  const auto [policy, servers] = GetParam();
  Placement p(servers, policy);
  std::vector<double> counts(servers, 0);
  constexpr int kFiles = 30000;
  const auto spec = workload::synthetic_small(kFiles, 1024);
  for (int i = 0; i < kFiles; ++i) {
    ++counts[p.home(workload::dataset_file_path(spec, i))];
  }
  // Coefficient of variation of per-server file counts stays small —
  // the paper's Fig 15 "fairly well-balanced distribution".
  EXPECT_LT(coefficient_of_variation(counts), 0.15)
      << placement_policy_name(policy) << " servers=" << servers;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlacementBalance,
    ::testing::Combine(::testing::Values(PlacementPolicy::kHashModulo,
                                         PlacementPolicy::kRendezvous,
                                         PlacementPolicy::kJump),
                       ::testing::Values(4, 16, 64, 256)));

TEST(Placement, OrderByHealthSinksOpenCircuits) {
  const std::vector<std::string> endpoints = {"10.0.0.1:1", "10.0.0.2:1",
                                              "10.0.0.3:1"};
  rpc::HealthRegistry::global().reset();

  // All circuits closed: the replica order is untouched.
  EXPECT_EQ(order_by_health({2, 0, 1}, endpoints),
            (std::vector<uint32_t>{2, 0, 1}));

  // Trip server 0's breaker: it sinks to the back, the relative order
  // of the healthy servers is preserved (stable), and it is kept —
  // an open circuit is still a better last resort than nothing.
  auto health = rpc::HealthRegistry::global().get(endpoints[0]);
  while (health->state() != rpc::EndpointHealth::State::kOpen) {
    health->record_failure();
  }
  EXPECT_EQ(order_by_health({0, 2, 1}, endpoints),
            (std::vector<uint32_t>{2, 1, 0}));
  EXPECT_EQ(order_by_health({2, 0, 1}, endpoints),
            (std::vector<uint32_t>{2, 1, 0}));

  // Out-of-range indices (stale placement vs a shrunk endpoint list)
  // are left in place rather than dereferenced.
  EXPECT_EQ(order_by_health({7, 1}, endpoints),
            (std::vector<uint32_t>{7, 1}));

  // Recovery: a closed circuit stops sinking.
  health->record_success();
  rpc::HealthRegistry::global().reset();
  EXPECT_EQ(order_by_health({0, 2, 1}, endpoints),
            (std::vector<uint32_t>{0, 2, 1}));
}

// ---- eviction ---------------------------------------------------------------

TEST(Eviction, FifoEvictsOldest) {
  FifoEviction fifo;
  fifo.on_insert("a");
  fifo.on_insert("b");
  fifo.on_insert("c");
  EXPECT_EQ(fifo.select_victim().value(), "a");
  fifo.on_evict("a");
  EXPECT_EQ(fifo.select_victim().value(), "b");
}

TEST(Eviction, LruRespectsAccess) {
  LruEviction lru;
  lru.on_insert("a");
  lru.on_insert("b");
  lru.on_insert("c");
  lru.on_access("a");  // a is now most recent
  EXPECT_EQ(lru.select_victim().value(), "b");
  lru.on_evict("b");
  lru.on_access("c");
  EXPECT_EQ(lru.select_victim().value(), "a");
}

TEST(Eviction, RandomSelectsTrackedEntry) {
  RandomEviction random(123);
  EXPECT_FALSE(random.select_victim().has_value());
  for (int i = 0; i < 20; ++i) random.on_insert("f" + std::to_string(i));
  for (int i = 0; i < 50; ++i) {
    const auto victim = random.select_victim();
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->rfind("f", 0), 0u);
  }
}

TEST(Eviction, RandomEvictRemovesFromPool) {
  RandomEviction random(7);
  random.on_insert("only");
  random.on_evict("only");
  EXPECT_FALSE(random.select_victim().has_value());
}

TEST(Eviction, DuplicateInsertIgnored) {
  FifoEviction fifo;
  fifo.on_insert("a");
  fifo.on_insert("a");
  fifo.on_evict("a");
  EXPECT_FALSE(fifo.select_victim().has_value());
}

TEST(Eviction, FactoryByName) {
  EXPECT_STREQ(make_eviction_policy("random")->name(), "random");
  EXPECT_STREQ(make_eviction_policy("fifo")->name(), "fifo");
  EXPECT_STREQ(make_eviction_policy("lru")->name(), "lru");
  EXPECT_STREQ(make_eviction_policy("unknown")->name(), "random");
}

// ---- fd table ----------------------------------------------------------------

TEST(FdTable, InsertGetErase) {
  FdTable table;
  FdEntry e;
  e.logical_path = "a.bin";
  e.size = 42;
  const int vfd = table.insert(e);
  EXPECT_GE(vfd, FdTable::kVirtualFdBase);
  EXPECT_TRUE(FdTable::is_virtual(vfd));
  EXPECT_FALSE(FdTable::is_virtual(3));

  const auto got = table.get(vfd);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->logical_path, "a.bin");
  EXPECT_EQ(got->size, 42u);

  ASSERT_TRUE(table.set_offset(vfd, 10).ok());
  EXPECT_EQ(table.get(vfd)->offset, 10u);

  const auto erased = table.erase(vfd);
  ASSERT_TRUE(erased.ok());
  EXPECT_FALSE(table.get(vfd).ok());
  EXPECT_EQ(table.get(vfd).error().code, ErrorCode::kBadFd);
}

TEST(FdTable, DistinctFdsAcrossThreads) {
  FdTable table;
  std::vector<std::thread> threads;
  std::mutex mu;
  std::set<int> fds;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        const int vfd = table.insert(FdEntry{});
        std::lock_guard<std::mutex> lock(mu);
        fds.insert(vfd);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(fds.size(), 400u);
  EXPECT_EQ(table.size(), 400u);
}

TEST(FdTable, ReserveOffsetGivesDisjointRangesAcrossThreads) {
  FdTable table;
  const int vfd = table.insert(FdEntry{});
  constexpr int kThreads = 4;
  constexpr int kWrites = 250;
  constexpr uint64_t kCount = 7;
  std::vector<std::thread> threads;
  std::mutex mu;
  std::set<uint64_t> offsets;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kWrites; ++i) {
        const auto off = table.reserve_offset(vfd, kCount);
        ASSERT_TRUE(off.ok());
        std::lock_guard<std::mutex> lock(mu);
        offsets.insert(*off);
      }
    });
  }
  for (auto& t : threads) t.join();
  // write(2)-style atomic advance: every reservation starts at a
  // distinct multiple of the write size and nothing is lost.
  EXPECT_EQ(offsets.size(),
            static_cast<size_t>(kThreads) * kWrites);
  for (const uint64_t off : offsets) EXPECT_EQ(off % kCount, 0u);
  EXPECT_EQ(table.get(vfd)->offset,
            static_cast<uint64_t>(kThreads) * kWrites * kCount);
}

TEST(FdTable, RewindOffsetOnlyUndoesTheLatestReservation) {
  FdTable table;
  const int vfd = table.insert(FdEntry{});
  ASSERT_TRUE(table.reserve_offset(vfd, 10).ok());  // [0, 10)
  // Short write of 4 with nothing reserved past us: offset rewinds.
  ASSERT_TRUE(table.rewind_offset(vfd, 10, 4).ok());
  EXPECT_EQ(table.get(vfd)->offset, 4u);
  ASSERT_TRUE(table.reserve_offset(vfd, 10).ok());  // [4, 14)
  ASSERT_TRUE(table.reserve_offset(vfd, 10).ok());  // [14, 24)
  // The first writer's rewind is a no-op: a later reservation already
  // built on top of its range.
  ASSERT_TRUE(table.rewind_offset(vfd, 14, 6).ok());
  EXPECT_EQ(table.get(vfd)->offset, 24u);
}

TEST(FdTable, ReserveReadClampsToSizeAndReplaceKeepsOffset) {
  FdTable table;
  FdEntry e;
  e.size = 10;
  const int vfd = table.insert(e);
  auto r = table.reserve_read(vfd, 6);  // [0, 6)
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->offset, 0u);
  EXPECT_EQ(r->length, 6u);
  r = table.reserve_read(vfd, 6);  // clamped to [6, 10)
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->offset, 6u);
  EXPECT_EQ(r->length, 4u);
  r = table.reserve_read(vfd, 6);  // at EOF: nothing reserved
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->offset, 10u);
  EXPECT_EQ(r->length, 0u);

  // A fail-over swap keeps the application's offset and takes the rest.
  FdEntry fresh;
  fresh.size = 10;
  fresh.fallback_pfs = true;
  fresh.offset = 3;
  ASSERT_TRUE(table.replace(vfd, fresh).ok());
  EXPECT_EQ(table.get(vfd)->offset, 10u);
  EXPECT_TRUE(table.get(vfd)->fallback_pfs);

  // Attaching bytes to a live fd sticks; to a closed one is a no-op.
  auto bytes = std::make_shared<const std::vector<uint8_t>>(10, 7);
  table.attach_inline(vfd, bytes);
  EXPECT_EQ(table.get(vfd)->inline_data, bytes);
  ASSERT_TRUE(table.erase(vfd).ok());
  table.attach_inline(vfd, bytes);
  EXPECT_FALSE(table.get(vfd).ok());
  EXPECT_EQ(table.size(), 0u);
}

// ---- cache manager -------------------------------------------------------------

struct CacheFixture {
  std::string pfs_root;
  std::string cache_root;
  std::unique_ptr<storage::PfsBackend> pfs;
  std::unique_ptr<CacheManager> cache;

  explicit CacheFixture(const std::string& name, uint64_t capacity = 0,
                        const std::string& policy = "random") {
    pfs_root = temp_dir(name + "_pfs");
    cache_root = temp_dir(name + "_cache");
    pfs = std::make_unique<storage::PfsBackend>(pfs_root);
    cache = std::make_unique<CacheManager>(
        pfs.get(),
        std::make_unique<storage::LocalStore>(cache_root, capacity),
        make_eviction_policy(policy));
  }

  void put_pfs_file(const std::string& rel, size_t size, uint8_t fill) {
    std::vector<uint8_t> data(size, fill);
    ASSERT_TRUE(storage::write_file(pfs_root + "/" + rel, data.data(),
                                    data.size())
                    .ok());
  }
};

TEST(CacheManager, MissThenHit) {
  CacheFixture fx("mth");
  fx.put_pfs_file("a.bin", 500, 0x11);

  EXPECT_FALSE(fx.cache->is_cached("a.bin"));
  const auto first = fx.cache->read_through("a.bin");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->size(), 500u);
  EXPECT_TRUE(fx.cache->is_cached("a.bin"));

  const auto second = fx.cache->read_through("a.bin");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, *first);

  const auto m = fx.cache->metrics();
  EXPECT_EQ(m.misses, 1u);
  EXPECT_EQ(m.hits, 1u);
  // Only the single PFS->cache copy touched the PFS.
  EXPECT_EQ(fx.pfs->bytes_read(), 500u);
}

TEST(CacheManager, MissingFileSurfacesNotFound) {
  CacheFixture fx("missing");
  const auto r = fx.cache->read_through("nope.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kNotFound);
}

TEST(CacheManager, SingleCopyUnderConcurrency) {
  CacheFixture fx("single_copy");
  fx.put_pfs_file("hot.bin", 200000, 0x22);

  constexpr int kThreads = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const auto data = fx.cache->read_through("hot.bin");
      if (data.ok() && data->size() == 200000) ++ok;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), kThreads);

  const auto m = fx.cache->metrics();
  // Exactly one copier; everyone else either waited on the in-flight
  // copy or arrived after it finished.
  EXPECT_EQ(m.misses, 1u);
  EXPECT_EQ(m.hits + m.misses, uint64_t(kThreads));
  EXPECT_EQ(fx.pfs->bytes_read(), 200000u);
}

TEST(CacheManager, CapacityTriggersEviction) {
  CacheFixture fx("evict", /*capacity=*/1500, "fifo");
  fx.put_pfs_file("a.bin", 600, 1);
  fx.put_pfs_file("b.bin", 600, 2);
  fx.put_pfs_file("c.bin", 600, 3);

  ASSERT_TRUE(fx.cache->read_through("a.bin").ok());
  ASSERT_TRUE(fx.cache->read_through("b.bin").ok());
  ASSERT_TRUE(fx.cache->read_through("c.bin").ok());  // evicts a (FIFO)

  EXPECT_FALSE(fx.cache->is_cached("a.bin"));
  EXPECT_TRUE(fx.cache->is_cached("b.bin"));
  EXPECT_TRUE(fx.cache->is_cached("c.bin"));
  EXPECT_EQ(fx.cache->metrics().evictions, 1u);
}

TEST(CacheManager, OversizedFileFallsBackToPfs) {
  CacheFixture fx("oversize", /*capacity=*/1000);
  fx.put_pfs_file("big.bin", 5000, 7);
  const auto data = fx.cache->read_through("big.bin");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->size(), 5000u);
  EXPECT_FALSE(fx.cache->is_cached("big.bin"));
  const auto m = fx.cache->metrics();
  EXPECT_EQ(m.pfs_fallbacks, 1u);
  EXPECT_EQ(m.misses, 0u);
}

TEST(CacheManager, PreadThroughOffsets) {
  CacheFixture fx("pread");
  std::vector<uint8_t> data(1000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = uint8_t(i % 256);
  ASSERT_TRUE(storage::write_file(fx.pfs_root + "/f.bin", data.data(),
                                  data.size())
                  .ok());
  uint8_t buf[10];
  const auto n = fx.cache->pread_through("f.bin", buf, sizeof(buf), 300);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 10u);
  EXPECT_EQ(buf[0], 300 % 256);
  EXPECT_TRUE(fx.cache->is_cached("f.bin"));
}

TEST(CacheManager, ExplicitEvictAndPurge) {
  CacheFixture fx("explicit");
  fx.put_pfs_file("a.bin", 100, 1);
  ASSERT_TRUE(fx.cache->read_through("a.bin").ok());
  ASSERT_TRUE(fx.cache->evict("a.bin").ok());
  EXPECT_FALSE(fx.cache->is_cached("a.bin"));
  EXPECT_FALSE(fx.cache->evict("a.bin").ok());  // not cached now

  ASSERT_TRUE(fx.cache->read_through("a.bin").ok());
  fx.cache->purge();
  EXPECT_FALSE(fx.cache->is_cached("a.bin"));
  EXPECT_EQ(fx.cache->store().bytes_used(), 0u);
}

TEST(CacheManager, CachedContentMatchesPfsBytes) {
  CacheFixture fx("content");
  std::vector<uint8_t> data(3000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = uint8_t((i * 31) % 256);
  }
  ASSERT_TRUE(storage::write_file(fx.pfs_root + "/pat.bin", data.data(),
                                  data.size())
                  .ok());
  const auto through = fx.cache->read_through("pat.bin");
  ASSERT_TRUE(through.ok());
  EXPECT_EQ(*through, data);
  // Second read (hit) also matches.
  EXPECT_EQ(*fx.cache->read_through("pat.bin"), data);
}

TEST(CacheManager, ColdFetchCostsOneMetadataOp) {
  CacheFixture fx("one_meta");
  fx.put_pfs_file("a.bin", 3000, 4);
  // Cold: one PFS open, sized by fstat on that fd and copied from it.
  ASSERT_TRUE(fx.cache->ensure_cached("a.bin").value());
  EXPECT_EQ(fx.pfs->metadata_ops(), 1u);
  EXPECT_EQ(fx.pfs->bytes_read(), 3000u);
  // Cached: no PFS op at all.
  ASSERT_TRUE(fx.cache->ensure_cached("a.bin").value());
  EXPECT_EQ(fx.pfs->metadata_ops(), 1u);
  // A cold segment costs one op too, and copies only its range.
  ASSERT_TRUE(fx.cache->ensure_segment_cached("a.bin", 1, 1024).value());
  EXPECT_EQ(fx.pfs->metadata_ops(), 2u);
  EXPECT_EQ(fx.pfs->bytes_read(), 3000u + 1024u);
  // The short last segment is clamped at EOF; past EOF is invalid.
  ASSERT_TRUE(fx.cache->ensure_segment_cached("a.bin", 2, 1024).value());
  EXPECT_EQ(fx.pfs->bytes_read(), 3000u + 1024u + 952u);
  // The three copies share one slab at 4 KiB-aligned slots; the store
  // counts the slab's length, padding included.
  EXPECT_EQ(fx.cache->store().bytes_used(),
            2 * storage::LocalStore::kSlotAlign + 952u);
  const auto past = fx.cache->ensure_segment_cached("a.bin", 3, 1024);
  ASSERT_FALSE(past.ok());
  EXPECT_EQ(past.error().code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(fx.cache->store().reserved_bytes(), 0u);
}

// ---- data mover ----------------------------------------------------------------

TEST(DataMover, FetchCachesFile) {
  CacheFixture fx("mover1");
  fx.put_pfs_file("a.bin", 100, 1);
  DataMover mover(fx.cache.get());
  const auto cached = mover.fetch("a.bin");
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(*cached);
  EXPECT_TRUE(fx.cache->is_cached("a.bin"));
}

TEST(DataMover, ManyConcurrentSubmitsAllResolve) {
  CacheFixture fx("mover2");
  for (int i = 0; i < 20; ++i) {
    fx.put_pfs_file("f" + std::to_string(i) + ".bin", 50, uint8_t(i));
  }
  DataMover mover(fx.cache.get(), /*movers=*/2);
  std::vector<std::shared_future<Result<bool>>> futures;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) {
      futures.push_back(mover.submit("f" + std::to_string(i) + ".bin"));
    }
  }
  for (auto& f : futures) {
    const auto r = f.get();
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(*r);
  }
  EXPECT_EQ(fx.cache->metrics().misses, 20u);
}

TEST(DataMover, SubmitAfterShutdownResolvesCancelled) {
  CacheFixture fx("mover3");
  DataMover mover(fx.cache.get());
  mover.shutdown();
  const auto r = mover.submit("whatever").get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kCancelled);
}

TEST(DataMover, FetchErrorPropagates) {
  CacheFixture fx("mover4");
  DataMover mover(fx.cache.get());
  const auto r = mover.fetch("does_not_exist.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kNotFound);
}

}  // namespace
}  // namespace hvac::core
