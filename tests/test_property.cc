// Property-based tests: randomized op sequences checked against
// reference models, wire-format corruption robustness, read-pattern
// equivalence through the full client, and simulator conservation
// invariants. All randomness is seeded per-parameter, so failures
// reproduce exactly.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>

#include "client/hvac_client.h"
#include "common/env.h"
#include "common/rng.h"
#include "core/cache_manager.h"
#include "rpc/protocol.h"
#include "server/node_runtime.h"
#include "sim/dl_job.h"
#include "storage/posix_file.h"
#include "workload/file_tree.h"

namespace hvac {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "hvac_prop_" + name +
                          "_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---- cache manager model check ------------------------------------------------

// Reference model: the cache must behave exactly like "read the file
// from the PFS directory" for every read, regardless of the interior
// hit/miss/eviction churn.
class CacheModelCheck : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheModelCheck, RandomOpsMatchReferenceModel) {
  const uint64_t seed = GetParam();
  SplitMix64 rng(seed);
  const std::string pfs_root =
      temp_dir("model_pfs_" + std::to_string(seed));

  // Small universe of files with known contents.
  constexpr int kFiles = 12;
  std::vector<std::string> rels;
  std::vector<std::vector<uint8_t>> contents;
  for (int i = 0; i < kFiles; ++i) {
    const std::string rel = "f" + std::to_string(i) + ".bin";
    const uint64_t size = 200 + rng.next_below(1800);
    auto data = workload::expected_contents(rel, size);
    ASSERT_TRUE(storage::write_file(pfs_root + "/" + rel, data.data(),
                                    data.size())
                    .ok());
    rels.push_back(rel);
    contents.push_back(std::move(data));
  }

  // Cache with capacity for roughly half the data -> constant churn.
  uint64_t total = 0;
  for (const auto& c : contents) total += c.size();
  storage::PfsBackend pfs(pfs_root);
  core::CacheManager cache(
      &pfs,
      std::make_unique<storage::LocalStore>(
          temp_dir("model_cache_" + std::to_string(seed)), total / 2),
      core::make_eviction_policy(seed % 3 == 0   ? "random"
                                 : seed % 3 == 1 ? "fifo"
                                                 : "lru",
                                 seed));

  for (int op = 0; op < 300; ++op) {
    const int f = int(rng.next_below(kFiles));
    switch (rng.next_below(4)) {
      case 0: {  // whole-file read
        const auto data = cache.read_through(rels[f]);
        ASSERT_TRUE(data.ok());
        ASSERT_EQ(*data, contents[f]) << "op " << op;
        break;
      }
      case 1: {  // positional read
        const uint64_t off = rng.next_below(contents[f].size());
        const size_t len = 1 + rng.next_below(300);
        std::vector<uint8_t> buf(len);
        const auto n =
            cache.pread_through(rels[f], buf.data(), len, off);
        ASSERT_TRUE(n.ok());
        const size_t expect =
            std::min<uint64_t>(len, contents[f].size() - off);
        ASSERT_EQ(*n, expect);
        ASSERT_TRUE(std::equal(buf.begin(), buf.begin() + *n,
                               contents[f].begin() + off));
        break;
      }
      case 2: {  // explicit evict (ok to fail if not cached)
        (void)cache.evict(rels[f]);
        break;
      }
      case 3: {  // segment read
        const uint64_t seg_bytes = 256;
        const uint64_t seg =
            rng.next_below(contents[f].size() / seg_bytes + 1);
        const uint64_t seg_off = seg * seg_bytes;
        if (seg_off >= contents[f].size()) break;
        std::vector<uint8_t> buf(seg_bytes);
        const auto n = cache.pread_segment(rels[f], seg, seg_bytes,
                                           buf.data(), buf.size(), 0);
        ASSERT_TRUE(n.ok());
        const size_t expect = std::min<uint64_t>(
            seg_bytes, contents[f].size() - seg_off);
        ASSERT_EQ(*n, expect);
        ASSERT_TRUE(std::equal(buf.begin(), buf.begin() + *n,
                               contents[f].begin() + seg_off));
        break;
      }
    }
    // Invariant: the store never exceeds its capacity.
    ASSERT_LE(cache.store().bytes_used(), total / 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheModelCheck,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---- client read-pattern equivalence ------------------------------------------

class ClientPatternCheck : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClientPatternCheck, RandomSeeksAndReadsMatchDirectIo) {
  const uint64_t seed = GetParam();
  const std::string pfs_root =
      temp_dir("pat_pfs_" + std::to_string(seed));
  const std::string rel = "data.bin";
  const auto expected = workload::expected_contents(rel, 50'000);
  ASSERT_TRUE(storage::write_file(pfs_root + "/" + rel, expected.data(),
                                  expected.size())
                  .ok());

  server::NodeRuntimeOptions o;
  o.pfs_root = pfs_root;
  o.cache_root = temp_dir("pat_cache_" + std::to_string(seed));
  o.instances = 2;
  server::NodeRuntime node(o);
  ASSERT_TRUE(node.start().ok());

  client::HvacClientOptions copts;
  copts.dataset_dir = pfs_root;
  copts.server_endpoints = node.endpoints();
  // Half the seeds exercise the segmented path.
  if (seed % 2 == 0) copts.segment_bytes = 8 * 1024;
  client::HvacClient client(copts);

  auto vfd = client.open(pfs_root + "/" + rel);
  ASSERT_TRUE(vfd.ok());

  SplitMix64 rng(seed * 77 + 1);
  uint64_t model_offset = 0;
  for (int op = 0; op < 120; ++op) {
    if (rng.next_below(3) == 0) {
      // Random absolute seek.
      model_offset = rng.next_below(expected.size() + 100);
      const auto pos =
          client.lseek(*vfd, int64_t(model_offset), SEEK_SET);
      ASSERT_TRUE(pos.ok());
      ASSERT_EQ(uint64_t(*pos), model_offset);
    } else {
      const size_t len = 1 + rng.next_below(5000);
      std::vector<uint8_t> buf(len);
      const auto n = client.read(*vfd, buf.data(), len);
      ASSERT_TRUE(n.ok()) << n.error().to_string();
      const size_t expect =
          model_offset >= expected.size()
              ? 0
              : std::min<uint64_t>(len, expected.size() - model_offset);
      ASSERT_EQ(*n, expect) << "op " << op << " offset " << model_offset;
      ASSERT_TRUE(std::equal(buf.begin(), buf.begin() + *n,
                             expected.begin() + model_offset));
      model_offset += *n;
    }
  }
  ASSERT_TRUE(client.close(*vfd).ok());
  node.stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClientPatternCheck,
                         ::testing::Values(10, 11, 12, 13));

// ---- wire corruption robustness -------------------------------------------------

// ---- path check: in-place fast path vs normalization ----------------------

// Random paths built from the pieces that make normalization matter
// ("//", ".", "..", trailing slashes) and from look-alike prefixes of
// the dataset dir (/d/x vs /d/xy). An already-normal absolute path is
// compared in place, any other one is normalized first; both must give
// path_under's eligibility answer and the logical path normalization
// gives.
TEST(PathCheck, FastAndSlowPathsAgree) {
  SplitMix64 rng(42);
  const std::vector<std::string> dirs = {"/d/x", "/data/set", "/"};
  const std::vector<std::string> pieces = {"d",  "x",  "xy", "data", "set",
                                           "sets", ".", "..", "",   "f.bin"};
  size_t normal = 0;
  for (int round = 0; round < 20000; ++round) {
    const std::string& dir = dirs[rng.next_below(dirs.size())];
    std::string path = rng.next_below(8) == 0 ? "" : "/";
    const size_t n = 1 + rng.next_below(6);
    for (size_t k = 0; k < n; ++k) {
      if (k > 0) path += rng.next_below(6) == 0 ? "//" : "/";
      path += pieces[rng.next_below(pieces.size())];
    }
    if (rng.next_below(5) == 0) path += "/";
    const std::string norm = lexically_normal(path);
    if (norm == path) ++normal;
    // Reference: normalize, then strip the dir.
    std::optional<std::string> want;
    if (path_under(path, dir)) {
      if (norm == dir) {
        want = ".";
      } else {
        want = norm.substr(dir == "/" ? 1 : dir.size() + 1);
      }
    }
    EXPECT_EQ(under_dir(path, dir), want.has_value()) << path << " " << dir;
    EXPECT_EQ(relative_under(path, dir), want) << path << " " << dir;
    // The normalized spelling takes the fast path to the same answer.
    EXPECT_EQ(relative_under(norm, dir), want) << norm << " " << dir;
  }
  EXPECT_GT(normal, 1000u);  // both paths were exercised
}

TEST(WireFuzz, CorruptedHeadersNeverCrash) {
  SplitMix64 rng(0xf022);
  for (int trial = 0; trial < 5000; ++trial) {
    uint8_t buf[rpc::kHeaderSize];
    for (auto& b : buf) b = uint8_t(rng.next());
    // Must either decode (if magic happens to match) or return a
    // protocol error — never crash or return garbage kinds.
    const auto header = rpc::decode_header(buf, rpc::kHeaderSize);
    if (header.ok()) {
      EXPECT_LE(header->payload_len, rpc::kMaxFrame);
      EXPECT_TRUE(header->kind == rpc::FrameKind::kRequest ||
                  header->kind == rpc::FrameKind::kResponse);
    }
  }
}

TEST(WireFuzz, TruncatedPayloadsErrorCleanly) {
  // A valid message, truncated at every possible point, must fail
  // with kProtocol (or decode successfully for prefix-complete cuts),
  // never UB.
  rpc::WireWriter w;
  w.put_string("hello");
  w.put_u64(42);
  w.put_blob(reinterpret_cast<const uint8_t*>("abc"), 3);
  const rpc::Bytes full = w.bytes();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    rpc::WireReader r(full.data(), cut);
    auto s = r.get_string();
    if (!s.ok()) continue;
    auto v = r.get_u64();
    if (!v.ok()) continue;
    auto b = r.get_blob();
    EXPECT_FALSE(b.ok()) << "cut=" << cut;  // 3-byte blob needs all bytes
  }
}

// ---- simulator invariants --------------------------------------------------------

// The backend is a std::string, not a const char*: gtest prints a char
// pointer parameter with its address, which would put a per-run number
// into every case name.
class SimInvariants
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(SimInvariants, IoConservation) {
  const auto [backend, nodes] = GetParam();
  sim::DlJobConfig job;
  job.app = workload::resnet50();
  job.nodes = uint32_t(nodes);
  job.dataset_scale = 2048;
  job.epochs_override = 3;
  const auto r = run_dl_job(sim::summit_defaults(), job, backend);

  const auto dataset = job.app.dataset.scaled(job.dataset_scale);
  // Every epoch reads >= the dataset once (sampler padding may repeat
  // a handful of files), so total bytes served is ~3x the dataset.
  uint64_t dataset_bytes = 0;
  for (uint64_t f = 0; f < dataset.num_files; ++f) {
    dataset_bytes += dataset.file_size(f);
  }
  const uint64_t served = r.io.bytes_from_gpfs + r.io.bytes_from_nvme;
  EXPECT_GE(served, 3 * dataset_bytes);
  EXPECT_LE(served, uint64_t(3.2 * double(dataset_bytes)));

  if (backend == "GPFS") {
    EXPECT_EQ(r.io.bytes_from_nvme, 0u);
    EXPECT_EQ(r.io.cache_hits, 0u);
  } else if (backend == "XFS") {
    EXPECT_EQ(r.io.bytes_from_gpfs, 0u);
  } else {
    // HVAC: each file crosses GPFS at most once (single copy).
    EXPECT_LE(r.io.bytes_from_gpfs, uint64_t(1.1 * dataset_bytes));
    EXPECT_EQ(r.io.cache_misses, dataset.num_files);
  }
  // Epochs are positive and finite.
  for (double e : r.epoch_seconds) {
    EXPECT_GT(e, 0.0);
    EXPECT_LT(e, 1e7);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimInvariants,
    ::testing::Combine(::testing::Values(std::string("GPFS"),
                                         std::string("XFS"),
                                         std::string("HVAC(1x1)"),
                                         std::string("HVAC(4x1)")),
                       ::testing::Values(4, 32)));

TEST(SimExactness, SingleRankBatchTimeClosedForm) {
  // One node, one rank, one batch, XFS: the completion time is exactly
  // opens + nvme transfer + compute.
  sim::SummitConfig cfg;
  sim::Cluster cluster(cfg, 1);
  workload::DatasetSpec dataset = workload::synthetic_small(64, 1 << 20,
                                                            /*sigma=*/0.0);
  sim::XfsSim xfs(&cluster, dataset);
  sim::BatchIo io;
  io.node = 0;
  io.files = {0, 1, 2, 3};
  double done_at = -1;
  xfs.read_batch(io, [&] { done_at = cluster.engine().now(); });
  cluster.engine().run();
  const double expected = 4 * cfg.xfs_open_latency_s +
                          4.0 * (1 << 20) / cfg.nvme_read_bps;
  EXPECT_NEAR(done_at, expected, 1e-9);
}

TEST(SimExactness, GpfsSingleBatchClosedForm) {
  sim::SummitConfig cfg;
  sim::Cluster cluster(cfg, 1);
  workload::DatasetSpec dataset = workload::synthetic_small(64, 1 << 20,
                                                            /*sigma=*/0.0);
  sim::GpfsSim gpfs(&cluster, dataset);
  sim::BatchIo io;
  io.node = 0;
  io.files = {0, 1};
  double done_at = -1;
  gpfs.read_batch(io, [&] { done_at = cluster.engine().now(); });
  cluster.engine().run();
  // Unloaded: serialized metadata latency dominates the station, then
  // the transfer is NIC-bound (12.5 GB/s < 2.5 TB/s).
  const double meta = 2 * cfg.gpfs_metadata_latency_s;
  const double xfer = 2.0 * (1 << 20) / cfg.nic_bps;
  EXPECT_NEAR(done_at, meta + xfer, 1e-9);
}

}  // namespace
}  // namespace hvac
