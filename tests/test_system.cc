// End-to-end tests of the functional HVAC system: real files, real
// TCP RPC, multi-node/multi-instance allocations, fail-over, and the
// Fig 14 invariant (training curves identical through the cache).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <thread>

#include "client/hvac_client.h"
#include "server/node_runtime.h"
#include "train/trainer.h"
#include "workload/file_tree.h"
#include "workload/shuffler.h"

namespace hvac {
namespace {

namespace fs = std::filesystem;
using client::HvacClient;
using client::HvacClientOptions;
using server::NodeRuntime;
using server::NodeRuntimeOptions;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "hvac_sys_" + name +
                          "_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// One "allocation": several NodeRuntimes (each = one simulated compute
// node with i server instances) over a shared PFS directory.
struct Allocation {
  std::string pfs_root;
  std::string cache_root;
  std::vector<std::unique_ptr<NodeRuntime>> nodes;
  workload::GeneratedTree tree;

  Allocation(const std::string& name, uint32_t num_nodes,
             uint32_t instances, uint64_t files = 24,
             uint64_t mean_bytes = 4096,
             uint64_t capacity_per_instance = 0) {
    pfs_root = temp_dir(name + "_pfs");
    cache_root = temp_dir(name + "_cache");
    auto spec = workload::synthetic_small(files, mean_bytes, 0.3);
    auto generated = workload::generate_tree(pfs_root, spec);
    EXPECT_TRUE(generated.ok());
    tree = std::move(generated).value();
    for (uint32_t n = 0; n < num_nodes; ++n) {
      NodeRuntimeOptions o;
      o.pfs_root = pfs_root;
      o.cache_root = cache_root + "/node" + std::to_string(n);
      o.instances = instances;
      o.cache_capacity_bytes_per_instance = capacity_per_instance;
      nodes.push_back(std::make_unique<NodeRuntime>(o));
      EXPECT_TRUE(nodes.back()->start().ok());
    }
  }

  std::vector<std::string> endpoints() const {
    std::vector<std::string> all;
    for (const auto& node : nodes) {
      for (const auto& e : node->endpoints()) all.push_back(e);
    }
    return all;
  }

  HvacClientOptions client_options() const {
    HvacClientOptions o;
    o.dataset_dir = pfs_root;
    o.server_endpoints = endpoints();
    return o;
  }

  std::string abs(const std::string& rel) const {
    return pfs_root + "/" + rel;
  }

  core::MetricsSnapshot total_metrics() const {
    core::MetricsSnapshot total;
    for (const auto& node : nodes) {
      const auto m = node->aggregated_metrics();
      total.hits += m.hits;
      total.misses += m.misses;
      total.dedup_waits += m.dedup_waits;
      total.evictions += m.evictions;
      total.bytes_from_cache += m.bytes_from_cache;
      total.bytes_from_pfs += m.bytes_from_pfs;
      total.pfs_fallbacks += m.pfs_fallbacks;
    }
    return total;
  }
};

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

TEST(System, SingleNodeReadThroughCacheMatchesDisk) {
  Allocation alloc("basic", 1, 1);
  HvacClient client(alloc.client_options());

  for (size_t i = 0; i < alloc.tree.relative_paths.size(); ++i) {
    const std::string& rel = alloc.tree.relative_paths[i];
    const auto data = read_whole(client, alloc.abs(rel));
    ASSERT_TRUE(data.ok()) << data.error().to_string();
    EXPECT_EQ(data->size(), alloc.tree.sizes[i]);
    EXPECT_TRUE(workload::verify_contents(rel, *data)) << rel;
  }
  const auto m = alloc.total_metrics();
  EXPECT_EQ(m.misses, alloc.tree.relative_paths.size());
  EXPECT_EQ(m.hits, 0u);
  EXPECT_EQ(m.pfs_fallbacks, 0u);

  // Second pass: every re-open is answered by the client meta cache
  // (no open round trip at all) and the bytes still come off the
  // node-local copy: a pread on the slab fd the first open passed.
  const uint64_t meta_hits_before = client.stats().meta_hits;
  const uint64_t slab_opens_before = client.stats().passed_fd_opens;
  const auto server_before = alloc.total_metrics();
  for (const auto& rel : alloc.tree.relative_paths) {
    ASSERT_TRUE(read_whole(client, alloc.abs(rel)).ok());
  }
  EXPECT_GE(client.stats().meta_hits - meta_hits_before,
            alloc.tree.relative_paths.size());
  EXPECT_EQ(client.stats().passed_fd_opens - slab_opens_before,
            alloc.tree.relative_paths.size());
  EXPECT_EQ(alloc.total_metrics().hits, server_before.hits);
  EXPECT_EQ(alloc.total_metrics().pfs_fallbacks, 0u);
}

TEST(System, MultiNodeMultiInstancePlacementSpreads) {
  Allocation alloc("spread", 3, 2, /*files=*/60);
  HvacClient client(alloc.client_options());
  ASSERT_EQ(client.options().server_endpoints.size(), 6u);

  std::vector<int> per_server(6, 0);
  for (const auto& rel : alloc.tree.relative_paths) {
    ASSERT_TRUE(read_whole(client, alloc.abs(rel)).ok());
    ++per_server[client.home_of(alloc.abs(rel))];
  }
  // Every server got some share of 60 files.
  for (int count : per_server) EXPECT_GT(count, 0);
  // And the files landed in the matching instance's store.
  size_t cached_total = 0;
  for (const auto& node : alloc.nodes) {
    for (size_t i = 0; i < node->instance_count(); ++i) {
      cached_total += node->instance(i).cache().store().entry_count();
    }
  }
  EXPECT_EQ(cached_total, alloc.tree.relative_paths.size());
}

TEST(System, PreadAndLseekSemantics) {
  Allocation alloc("seek", 1, 1);
  HvacClient client(alloc.client_options());
  const std::string& rel = alloc.tree.relative_paths[0];
  const auto expected =
      workload::expected_contents(rel, alloc.tree.sizes[0]);

  auto vfd = client.open(alloc.abs(rel));
  ASSERT_TRUE(vfd.ok());

  // pread does not move the offset.
  std::vector<uint8_t> buf(16);
  ASSERT_TRUE(client.pread(*vfd, buf.data(), buf.size(), 100).ok());
  EXPECT_TRUE(std::equal(buf.begin(), buf.end(), expected.begin() + 100));

  // lseek + read.
  ASSERT_EQ(client.lseek(*vfd, 50, SEEK_SET).value(), 50);
  ASSERT_TRUE(client.read(*vfd, buf.data(), buf.size()).ok());
  EXPECT_TRUE(std::equal(buf.begin(), buf.end(), expected.begin() + 50));
  // SEEK_CUR from 66.
  EXPECT_EQ(client.lseek(*vfd, 10, SEEK_CUR).value(), 76);
  // SEEK_END.
  EXPECT_EQ(client.lseek(*vfd, 0, SEEK_END).value(),
            int64_t(alloc.tree.sizes[0]));
  EXPECT_FALSE(client.lseek(*vfd, -9999, SEEK_SET).ok());
  ASSERT_TRUE(client.close(*vfd).ok());
}

TEST(System, OpenOutsideDatasetRejected) {
  Allocation alloc("outside", 1, 1);
  HvacClient client(alloc.client_options());
  const auto vfd = client.open("/etc/hostname");
  ASSERT_FALSE(vfd.ok());
  EXPECT_EQ(vfd.error().code, ErrorCode::kInvalidArgument);
  EXPECT_FALSE(client.eligible("/etc/hostname"));
  EXPECT_TRUE(client.eligible(alloc.abs("x")));
}

TEST(System, MissingFileIsNotFound) {
  Allocation alloc("nf", 1, 1);
  HvacClient client(alloc.client_options());
  const auto vfd = client.open(alloc.abs("does/not/exist.bin"));
  ASSERT_FALSE(vfd.ok());
  EXPECT_EQ(vfd.error().code, ErrorCode::kNotFound);
}

TEST(System, StatSizeMatchesTree) {
  Allocation alloc("stat", 2, 1);
  HvacClient client(alloc.client_options());
  for (size_t i = 0; i < 5; ++i) {
    const auto size =
        client.stat_size(alloc.abs(alloc.tree.relative_paths[i]));
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, alloc.tree.sizes[i]);
  }
}

TEST(System, PrefetchWarmsCache) {
  Allocation alloc("prefetch", 2, 1);
  HvacClient client(alloc.client_options());
  for (const auto& rel : alloc.tree.relative_paths) {
    ASSERT_TRUE(client.prefetch(alloc.abs(rel)).ok());
  }
  const auto warm = alloc.total_metrics();
  EXPECT_EQ(warm.misses, alloc.tree.relative_paths.size());

  // All subsequent opens are hits.
  for (const auto& rel : alloc.tree.relative_paths) {
    ASSERT_TRUE(read_whole(client, alloc.abs(rel)).ok());
  }
  EXPECT_EQ(alloc.total_metrics().hits,
            alloc.tree.relative_paths.size());
}

TEST(System, DeadPrimaryFailsOverToPfsFallback) {
  Allocation alloc("failover", 2, 1);
  auto options = alloc.client_options();
  // Kill node 1's server after building the endpoint map.
  alloc.nodes[1]->stop();
  options.rpc.connect_timeout_ms = 300;
  options.rpc.recv_timeout_ms = 300;
  HvacClient client(options);

  // Every file must still be readable (fail-open), some via PFS.
  for (size_t i = 0; i < alloc.tree.relative_paths.size(); ++i) {
    const std::string& rel = alloc.tree.relative_paths[i];
    const auto data = read_whole(client, alloc.abs(rel));
    ASSERT_TRUE(data.ok()) << rel << ": " << data.error().to_string();
    EXPECT_TRUE(workload::verify_contents(rel, *data));
  }
  const auto stats = client.stats();
  EXPECT_GT(stats.fallback_opens, 0u);
  EXPECT_GT(stats.remote_opens, 0u);
  EXPECT_EQ(stats.opens, alloc.tree.relative_paths.size());
}

TEST(System, ReplicationSurvivesServerLoss) {
  Allocation alloc("replica", 3, 1, /*files=*/30);
  auto options = alloc.client_options();
  options.placement = core::PlacementPolicy::kRendezvous;
  options.replicas = 2;
  options.allow_pfs_fallback = false;  // force replica fail-over
  options.rpc.connect_timeout_ms = 300;
  options.rpc.recv_timeout_ms = 300;
  alloc.nodes[2]->stop();

  HvacClient client(options);
  for (const auto& rel : alloc.tree.relative_paths) {
    const auto data = read_whole(client, alloc.abs(rel));
    ASSERT_TRUE(data.ok()) << rel << ": " << data.error().to_string();
    EXPECT_TRUE(workload::verify_contents(rel, *data));
  }
  // Files homed on the dead server reached their second replica.
  EXPECT_GT(client.stats().failovers, 0u);
}

TEST(System, CapacityOverflowServedFromPfsPassthrough) {
  // Tiny caches: most files overflow and are served through the
  // server's PFS passthrough path — still correct bytes.
  Allocation alloc("overflow", 1, 1, /*files=*/10, /*mean=*/8192,
                   /*capacity=*/12 * 1024);
  HvacClient client(alloc.client_options());
  for (size_t i = 0; i < alloc.tree.relative_paths.size(); ++i) {
    const std::string& rel = alloc.tree.relative_paths[i];
    const auto data = read_whole(client, alloc.abs(rel));
    ASSERT_TRUE(data.ok());
    EXPECT_TRUE(workload::verify_contents(rel, *data));
  }
  const auto m = alloc.total_metrics();
  EXPECT_GT(m.pfs_fallbacks + m.evictions, 0u);
}

TEST(System, ConcurrentClientsSeeConsistentData) {
  Allocation alloc("conc", 2, 2, /*files=*/16, /*mean=*/16384);
  constexpr int kThreads = 6;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&alloc, &ok] {
      HvacClient client(alloc.client_options());
      for (const auto& rel : alloc.tree.relative_paths) {
        const auto data = read_whole(client, alloc.abs(rel));
        if (data.ok() && workload::verify_contents(rel, *data)) ++ok;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), kThreads * int(alloc.tree.relative_paths.size()));
  // Single-copy: each file fetched from the PFS exactly once.
  const auto m = alloc.total_metrics();
  EXPECT_EQ(m.misses, alloc.tree.relative_paths.size());
}

TEST(System, ServerStopPurgesCache) {
  Allocation alloc("purge", 1, 1);
  {
    HvacClient client(alloc.client_options());
    for (const auto& rel : alloc.tree.relative_paths) {
      ASSERT_TRUE(read_whole(client, alloc.abs(rel)).ok());
    }
  }
  const std::string store_root =
      alloc.cache_root + "/node0/instance_0";
  size_t before = 0;
  for (const auto& e : fs::directory_iterator(store_root)) {
    (void)e;
    ++before;
  }
  EXPECT_GT(before, 0u);
  alloc.nodes[0]->stop();
  size_t after = 0;
  for (const auto& e : fs::directory_iterator(store_root)) {
    (void)e;
    ++after;
  }
  EXPECT_EQ(after, 0u);  // cache lifetime == job lifetime
}

// ---- Fig 14 invariant: training through HVAC == training off PFS ----------

TEST(System, TrainingCurveIdenticalThroughHvac) {
  const std::string pfs_root = temp_dir("train_pfs");
  const std::string cache_root = temp_dir("train_cache");
  train::MixtureSpec data;
  data.train_samples = 160;
  data.test_samples = 80;
  ASSERT_TRUE(train::write_train_files(data, pfs_root).ok());

  NodeRuntimeOptions node_options;
  node_options.pfs_root = pfs_root;
  node_options.cache_root = cache_root;
  node_options.instances = 2;
  NodeRuntime node(node_options);
  ASSERT_TRUE(node.start().ok());

  train::LoopConfig loop;
  loop.data = data;
  loop.epochs = 3;
  loop.dataset_root = pfs_root;

  // Baseline: direct POSIX reads (the "GPFS" path).
  const auto direct = train::run_training_loop(
      loop, [](const std::string& path) {
        return storage::read_file(path);
      });
  ASSERT_TRUE(direct.ok());

  // Same loop, reads through HVAC.
  HvacClientOptions client_options;
  client_options.dataset_dir = pfs_root;
  client_options.server_endpoints = node.endpoints();
  HvacClient client(client_options);
  const auto cached = train::run_training_loop(
      loop, [&client](const std::string& path) {
        return read_whole(client, path);
      });
  ASSERT_TRUE(cached.ok());

  // Bit-identical accuracy trajectories: HVAC did not perturb the
  // shuffled sequence or the bytes.
  EXPECT_TRUE(direct->identical_to(*cached));
  EXPECT_GT(cached->final_top1, 0.55);  // the model actually learned
  EXPECT_GT(cached->final_top5, 0.9);
  // And the cache really served the later epochs: the meta cache
  // short-circuited the re-opens, and every open read the node-local
  // copy through a slab fd the client holds (DESIGN.md §20).
  EXPECT_GT(client.stats().meta_hits, 0u);
  EXPECT_EQ(client.stats().passed_fd_opens, client.stats().remote_opens);
}

// Epoch shuffling itself is backend-independent and epoch-dependent.
TEST(System, ShuffleDeterminismAcrossEpochs) {
  workload::EpochShuffler shuffler(100, 42);
  EXPECT_EQ(shuffler.shuffled(3), shuffler.shuffled(3));
  EXPECT_NE(shuffler.shuffled(3), shuffler.shuffled(4));

  workload::DistributedSampler s0(0, 4), s1(1, 4);
  const auto order = shuffler.shuffled(0);
  const auto p0 = s0.partition(order);
  const auto p1 = s1.partition(order);
  EXPECT_EQ(p0.size(), 25u);
  EXPECT_NE(p0, p1);
}

}  // namespace
}  // namespace hvac
