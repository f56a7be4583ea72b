// Packed container format (storage/packed_format.h): index codec
// hardening, pack_tree round trips, and the end-to-end promise — a
// packed dataset whose originals are GONE is served byte-for-byte
// through the client with zero per-sample open RPCs and at most one
// server open(2) per container.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "client/hvac_client.h"
#include "common/fault_injection.h"
#include "common/hash.h"
#include "server/hvac_proto.h"
#include "server/node_runtime.h"
#include "storage/packed_format.h"
#include "storage/posix_file.h"
#include "workload/file_tree.h"

namespace hvac {
namespace {

namespace fs = std::filesystem;
using client::HvacClient;
using client::HvacClientOptions;
using server::NodeRuntime;
using server::NodeRuntimeOptions;
using storage::PackedEntry;
using storage::PackedIndex;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "hvac_packed_" + name +
                          "_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

PackedIndex sample_index() {
  std::vector<PackedEntry> entries;
  entries.push_back({stable_hash("a/one.bin"), 0, 0, 100});
  entries.push_back({stable_hash("a/two.bin"), 0, 100, 50});
  entries.push_back({stable_hash("b/three.bin"), 1, 0, 4096});
  auto built = PackedIndex::build(std::move(entries), {150, 4096});
  EXPECT_TRUE(built.ok()) << built.error().to_string();
  return std::move(built).value();
}

TEST(PackedIndexCodec, RoundTrip) {
  const PackedIndex index = sample_index();
  const std::vector<uint8_t> raw = index.encode();
  auto decoded = PackedIndex::decode(raw.data(), raw.size());
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  ASSERT_EQ(decoded->entries.size(), 3u);
  ASSERT_EQ(decoded->container_sizes.size(), 2u);
  EXPECT_EQ(decoded->total_sample_bytes(), 100u + 50u + 4096u);

  const PackedEntry* hit = decoded->find(stable_hash("a/two.bin"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->container_id, 0u);
  EXPECT_EQ(hit->offset, 100u);
  EXPECT_EQ(hit->length, 50u);
  EXPECT_EQ(decoded->find(stable_hash("a/none.bin")), nullptr);
}

TEST(PackedIndexCodec, RejectsTruncation) {
  const std::vector<uint8_t> raw = sample_index().encode();
  // Every proper prefix must be rejected, never mis-decoded: the
  // header, the size table, mid-entry, and the missing checksum.
  for (const size_t cut : {size_t{0}, size_t{3}, size_t{19}, size_t{21},
                           raw.size() / 2, raw.size() - 1}) {
    auto decoded = PackedIndex::decode(raw.data(), cut);
    EXPECT_FALSE(decoded.ok()) << "accepted a " << cut << "-byte prefix";
    EXPECT_EQ(decoded.error().code, ErrorCode::kProtocol);
  }
}

TEST(PackedIndexCodec, RejectsCorruption) {
  const std::vector<uint8_t> raw = sample_index().encode();
  // Magic, version, a size-table byte, an entry byte, a checksum byte.
  for (const size_t at : {size_t{0}, size_t{4}, size_t{22},
                          size_t{raw.size() / 2}, raw.size() - 1}) {
    std::vector<uint8_t> bad = raw;
    bad[at] ^= 0xff;
    EXPECT_FALSE(PackedIndex::decode(bad.data(), bad.size()).ok())
        << "accepted corruption at byte " << at;
  }
  // Trailing garbage is not tolerated either.
  std::vector<uint8_t> longer = raw;
  longer.push_back(0);
  EXPECT_FALSE(PackedIndex::decode(longer.data(), longer.size()).ok());
}

TEST(PackedIndexCodec, RejectsOutOfRangeExtents) {
  // encode() is deliberately permissive (it writes what it is given);
  // decode() is where every reader's safety lives.
  PackedIndex bad_container = sample_index();
  bad_container.entries[0].container_id = 7;
  auto raw = bad_container.encode();
  EXPECT_FALSE(PackedIndex::decode(raw.data(), raw.size()).ok());

  PackedIndex overflow = sample_index();
  overflow.entries[1].length = 101;  // 100 + 101 > container 0's 150
  raw = overflow.encode();
  EXPECT_FALSE(PackedIndex::decode(raw.data(), raw.size()).ok());
}

TEST(PackedIndexCodec, RejectsDuplicateAndUnsortedHashes) {
  PackedIndex dup = sample_index();
  dup.entries[1].path_hash = dup.entries[0].path_hash;
  auto raw = dup.encode();
  EXPECT_FALSE(PackedIndex::decode(raw.data(), raw.size()).ok());

  PackedIndex unsorted = sample_index();
  std::swap(unsorted.entries[0], unsorted.entries[2]);
  raw = unsorted.encode();
  EXPECT_FALSE(PackedIndex::decode(raw.data(), raw.size()).ok());

  // build() refuses the collision up front.
  std::vector<PackedEntry> twice;
  twice.push_back({42, 0, 0, 1});
  twice.push_back({42, 0, 1, 1});
  EXPECT_FALSE(PackedIndex::build(std::move(twice), {2}).ok());
}

TEST(PackedFormat, PackTreeRoundTripAndIdempotence) {
  const std::string root = temp_dir("roundtrip");
  auto spec = workload::synthetic_small(60, 3000, 0.4);
  auto tree = workload::generate_tree(root, spec);
  ASSERT_TRUE(tree.ok());

  storage::PackOptions options;
  options.container_bytes = 32 << 10;  // force several containers
  auto report = storage::pack_tree(root, options);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_EQ(report->files, tree->relative_paths.size());
  EXPECT_GT(report->containers, 1u);

  // Decode the on-disk index and read every sample straight out of its
  // container: bytes must equal the generator's pattern.
  auto raw = storage::read_file(root + "/" +
                                storage::packed_index_logical());
  ASSERT_TRUE(raw.ok());
  auto index = PackedIndex::decode(raw->data(), raw->size());
  ASSERT_TRUE(index.ok()) << index.error().to_string();
  for (size_t i = 0; i < tree->relative_paths.size(); ++i) {
    const std::string& rel = tree->relative_paths[i];
    const PackedEntry* e = index->find(stable_hash(rel));
    ASSERT_NE(e, nullptr) << rel;
    ASSERT_EQ(e->length, tree->sizes[i]);
    auto container = storage::PosixFile::open_read(
        root + "/" + storage::packed_container_logical(e->container_id));
    ASSERT_TRUE(container.ok());
    std::vector<uint8_t> data(e->length);
    auto n = container->pread(data.data(), data.size(), e->offset);
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(*n, e->length);
    EXPECT_TRUE(workload::verify_contents(rel, data)) << rel;
  }

  // Re-packing skips .hvacpack itself: same file population, and no
  // container-of-containers.
  auto again = storage::pack_tree(root, options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->files, report->files);
  EXPECT_EQ(again->bytes, report->bytes);
}

TEST(PackedFormat, OversizedSampleGetsItsOwnContainer) {
  const std::string root = temp_dir("oversized");
  const std::vector<uint8_t> big(10000, 0xab);
  const std::vector<uint8_t> small(10, 0xcd);
  ASSERT_TRUE(
      storage::write_file(root + "/big.bin", big.data(), big.size()).ok());
  ASSERT_TRUE(
      storage::write_file(root + "/small.bin", small.data(), small.size())
          .ok());
  storage::PackOptions options;
  options.container_bytes = 4096;  // smaller than big.bin
  auto report = storage::pack_tree(root, options);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_EQ(report->files, 2u);
  EXPECT_EQ(report->containers, 2u);  // never split, never co-packed

  auto raw = storage::read_file(root + "/" +
                                storage::packed_index_logical());
  ASSERT_TRUE(raw.ok());
  auto index = PackedIndex::decode(raw->data(), raw->size());
  ASSERT_TRUE(index.ok());
  const PackedEntry* big_entry = index->find(stable_hash("big.bin"));
  ASSERT_NE(big_entry, nullptr);
  EXPECT_EQ(big_entry->length, 10000u);
}

// One node serving a packed tree whose per-file originals were deleted
// after packing — the strongest proof that reads flow through the
// containers.
struct PackedAllocation {
  std::string pfs_root;
  std::string cache_root;
  workload::GeneratedTree tree;
  uint32_t containers = 0;
  std::unique_ptr<NodeRuntime> node;

  explicit PackedAllocation(const std::string& name, uint64_t files = 48,
                            bool delete_originals = true) {
    pfs_root = temp_dir(name + "_pfs");
    cache_root = temp_dir(name + "_cache");
    auto spec = workload::synthetic_small(files, 2048, 0.3);
    auto generated = workload::generate_tree(pfs_root, spec);
    EXPECT_TRUE(generated.ok());
    tree = std::move(generated).value();

    storage::PackOptions options;
    options.container_bytes = 16 << 10;
    auto report = storage::pack_tree(pfs_root, options);
    EXPECT_TRUE(report.ok());
    containers = report->containers;
    EXPECT_GT(containers, 1u);

    if (delete_originals) {
      for (const auto& rel : tree.relative_paths) {
        fs::remove(pfs_root + "/" + rel);
      }
    }

    NodeRuntimeOptions o;
    o.pfs_root = pfs_root;
    o.cache_root = cache_root;
    o.instances = 1;
    node = std::make_unique<NodeRuntime>(o);
    EXPECT_TRUE(node->start().ok());
  }

  HvacClientOptions client_options() const {
    HvacClientOptions o;
    o.dataset_dir = pfs_root;
    o.server_endpoints = node->endpoints();
    return o;
  }
};

Result<std::vector<uint8_t>> read_whole(HvacClient& client,
                                        const std::string& path) {
  HVAC_ASSIGN_OR_RETURN(int vfd, client.open(path));
  std::vector<uint8_t> data;
  std::vector<uint8_t> buf(1 << 16);
  for (;;) {
    HVAC_ASSIGN_OR_RETURN(size_t n,
                          client.read(vfd, buf.data(), buf.size()));
    if (n == 0) break;
    data.insert(data.end(), buf.begin(), buf.begin() + n);
  }
  HVAC_RETURN_IF_ERROR(client.close(vfd));
  return data;
}

uint64_t op_count(const core::MetricsFrame& frame, uint16_t op) {
  for (const auto& [code, snap] : frame.op_latency) {
    if (code == op) return snap.count;
  }
  return 0;
}

TEST(PackedSystem, ServesDeletedOriginalsWithZeroOpenRpcs) {
  PackedAllocation alloc("e2e");
  HvacClient client(alloc.client_options());

  for (size_t i = 0; i < alloc.tree.relative_paths.size(); ++i) {
    const std::string& rel = alloc.tree.relative_paths[i];
    auto size = client.stat_size(alloc.pfs_root + "/" + rel);
    ASSERT_TRUE(size.ok()) << size.error().to_string();
    EXPECT_EQ(*size, alloc.tree.sizes[i]) << rel;
    auto data = read_whole(client, alloc.pfs_root + "/" + rel);
    ASSERT_TRUE(data.ok()) << rel << ": " << data.error().to_string();
    ASSERT_EQ(data->size(), alloc.tree.sizes[i]) << rel;
    EXPECT_TRUE(workload::verify_contents(rel, *data)) << rel;
  }

  const core::MetricsFrame frame = alloc.node->aggregated_frame();
  // The tentpole acceptance: zero per-sample kOpen RPCs, exactly one
  // index fetch, and at most one handle-cache miss per container.
  EXPECT_EQ(op_count(frame, proto::kOpen), 0u);
  EXPECT_GE(op_count(frame, proto::kPackedIndex), 1u);
  EXPECT_GT(op_count(frame, proto::kReadScatter), 0u);
  EXPECT_LE(frame.handle_cache.misses, alloc.containers);
  EXPECT_GT(frame.handle_cache.hits, 0u);

  const client::ClientStats stats = client.stats();
  EXPECT_EQ(stats.opens, alloc.tree.relative_paths.size());
  EXPECT_EQ(stats.remote_opens, stats.opens);
  EXPECT_EQ(stats.fallback_opens, 0u);
}

TEST(PackedSystem, DisabledClientStillReadsUnpackedTree) {
  // Packed resolution off (HVAC_PACK=0 equivalent): the per-file path
  // serves, provided the originals still exist.
  PackedAllocation alloc("disabled", 12, /*delete_originals=*/false);
  HvacClientOptions options = alloc.client_options();
  options.packed_enabled = false;
  HvacClient client(options);

  for (size_t i = 0; i < alloc.tree.relative_paths.size(); ++i) {
    const std::string& rel = alloc.tree.relative_paths[i];
    auto data = read_whole(client, alloc.pfs_root + "/" + rel);
    ASSERT_TRUE(data.ok()) << data.error().to_string();
    EXPECT_TRUE(workload::verify_contents(rel, *data)) << rel;
  }
  const core::MetricsFrame frame = alloc.node->aggregated_frame();
  EXPECT_EQ(op_count(frame, proto::kOpen),
            alloc.tree.relative_paths.size());
  EXPECT_EQ(op_count(frame, proto::kPackedIndex), 0u);
}

TEST(PackedSystem, CorruptIndexFailsOpenToPerFilePath) {
  // Flip a byte of the on-disk index before the server starts: the
  // server must log-and-disable (not die), the client must get
  // "absent" from kPackedIndex, and unpacked reads must still serve.
  const std::string pfs_root = temp_dir("corrupt_pfs");
  const std::string cache_root = temp_dir("corrupt_cache");
  auto spec = workload::synthetic_small(8, 1024, 0.2);
  auto tree = workload::generate_tree(pfs_root, spec);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(storage::pack_tree(pfs_root).ok());
  const std::string index_path =
      pfs_root + "/" + storage::packed_index_logical();
  auto raw = storage::read_file(index_path);
  ASSERT_TRUE(raw.ok());
  (*raw)[raw->size() / 2] ^= 0xff;
  ASSERT_TRUE(
      storage::write_file(index_path, raw->data(), raw->size()).ok());

  NodeRuntimeOptions o;
  o.pfs_root = pfs_root;
  o.cache_root = cache_root;
  o.instances = 1;
  NodeRuntime node(o);
  ASSERT_TRUE(node.start().ok());

  HvacClientOptions copt;
  copt.dataset_dir = pfs_root;
  copt.server_endpoints = node.endpoints();
  HvacClient client(copt);
  for (size_t i = 0; i < tree->relative_paths.size(); ++i) {
    auto data =
        read_whole(client, pfs_root + "/" + tree->relative_paths[i]);
    ASSERT_TRUE(data.ok()) << data.error().to_string();
    EXPECT_TRUE(workload::verify_contents(tree->relative_paths[i], *data));
  }
  // The per-file path was used (packed resolution never engaged).
  EXPECT_GT(op_count(node.aggregated_frame(), proto::kOpen), 0u);
}

TEST(PackedSystem, PackedReadsSurviveStoreFaults) {
  PackedAllocation alloc("faults", 24);
  HvacClient client(alloc.client_options());

  // The first two local-store opens fail (as if the NVMe hiccuped):
  // the server degrades those reads to its PFS read-through path and
  // the bytes must still be exact.
  ASSERT_TRUE(fault::configure("store_read:error:count=2").ok());
  size_t verified = 0;
  for (size_t i = 0; i < alloc.tree.relative_paths.size(); ++i) {
    const std::string& rel = alloc.tree.relative_paths[i];
    auto data = read_whole(client, alloc.pfs_root + "/" + rel);
    ASSERT_TRUE(data.ok()) << rel << ": " << data.error().to_string();
    ASSERT_TRUE(workload::verify_contents(rel, *data)) << rel;
    ++verified;
  }
  EXPECT_EQ(verified, alloc.tree.relative_paths.size());
  EXPECT_GT(fault::stats(fault::Site::kStoreRead).errors, 0u);
  fault::reset();
}

// Server loss after a packed open: the client falls back to the PFS,
// where the sample's own file was deleted by the pack flow. The
// fallback must read the sample out of its container — at its base,
// and never past its length into the neighbouring sample.
TEST(PackedSystem, PfsFallbackReadsDeletedOriginalFromContainer) {
  PackedAllocation alloc("pfs_fallback", 12);
  HvacClientOptions options = alloc.client_options();
  options.rpc.max_retries = 0;
  HvacClient client(options);

  std::vector<int> vfds;
  for (const auto& rel : alloc.tree.relative_paths) {
    auto vfd = client.open(alloc.pfs_root + "/" + rel);
    ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
    vfds.push_back(*vfd);
  }
  alloc.node->stop();

  for (size_t i = 0; i < vfds.size(); ++i) {
    const std::string& rel = alloc.tree.relative_paths[i];
    const uint64_t size = alloc.tree.sizes[i];
    const auto expected = workload::expected_contents(rel, size);
    // One positional read asking for more than the sample holds.
    std::vector<uint8_t> data(size + 512);
    auto n = client.pread(vfds[i], data.data(), data.size(), 0);
    ASSERT_TRUE(n.ok()) << rel << ": " << n.error().to_string();
    ASSERT_EQ(*n, size) << rel;
    data.resize(*n);
    EXPECT_EQ(data, expected) << rel;
    // And a tail read straddling the sample's end.
    std::vector<uint8_t> tail(64);
    n = client.pread(vfds[i], tail.data(), tail.size(), size - 10);
    ASSERT_TRUE(n.ok()) << rel << ": " << n.error().to_string();
    ASSERT_EQ(*n, 10u) << rel;
    EXPECT_TRUE(std::equal(tail.begin(), tail.begin() + 10,
                           expected.end() - 10))
        << rel;
    EXPECT_TRUE(client.close(vfds[i]).ok());
  }
  EXPECT_EQ(client.stats().fallback_opens, vfds.size());
}

// Two threads race the first read of one packed vfd: each may fetch
// the whole sample, so at most two scatters go out, and both get the
// exact bytes.
TEST(PackedSystem, ConcurrentFirstReadsOfOnePackedFd) {
  PackedAllocation alloc("first_read_race", 12);
  HvacClient client(alloc.client_options());
  for (size_t i = 0; i < alloc.tree.relative_paths.size(); ++i) {
    const std::string& rel = alloc.tree.relative_paths[i];
    const auto expected = workload::expected_contents(rel, alloc.tree.sizes[i]);
    const uint64_t before =
        op_count(alloc.node->aggregated_frame(), proto::kReadScatter);
    auto vfd = client.open(alloc.pfs_root + "/" + rel);
    ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
    std::atomic<int> ready{0};
    std::vector<std::vector<uint8_t>> got(2);
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < 2) {
        }
        got[t].resize(expected.size());
        auto n = client.pread(*vfd, got[t].data(), got[t].size(), 0);
        if (!n.ok()) {
          got[t].clear();
          return;
        }
        got[t].resize(*n);
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(got[0], expected) << rel;
    EXPECT_EQ(got[1], expected) << rel;
    const uint64_t scatters =
        op_count(alloc.node->aggregated_frame(), proto::kReadScatter) -
        before;
    EXPECT_GE(scatters, 1u) << rel;
    EXPECT_LE(scatters, 2u) << rel;
    EXPECT_TRUE(client.close(*vfd).ok());
  }
  EXPECT_EQ(client.stats().readahead_issued, 0u);
}

}  // namespace
}  // namespace hvac
