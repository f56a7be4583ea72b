// Client-library edge cases: EOF semantics, bad fds, chunked bulk
// reads across the RPC frame cap, env bootstrap, and path hygiene.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <thread>

#include "client/hvac_client.h"
#include "rpc/health.h"
#include "rpc/rpc_server.h"
#include "rpc/wire.h"
#include "server/hvac_proto.h"
#include "server/node_runtime.h"
#include "storage/packed_format.h"
#include "workload/file_tree.h"

namespace hvac {
namespace {

namespace fs = std::filesystem;
using client::HvacClient;
using client::HvacClientOptions;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "hvac_edge_" + name +
                          "_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Above proto::kMaxInlineBytes, so reads go over the wire (a smaller
// file travels whole in the open reply and never sends one), or, over
// the node-local alias, through the cache fd the open reply passed.
constexpr size_t kFileBytes = 80'000;

// `endpoints` spelled localhost:PORT, which names no node-local alias:
// the client stays on TCP, where a large file's reads are RPCs.
std::vector<std::string> over_tcp(std::vector<std::string> endpoints) {
  for (std::string& e : endpoints) {
    e = "localhost:" + e.substr(e.rfind(':') + 1);
  }
  return endpoints;
}

class EdgeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    pfs_root_ = temp_dir("pfs");
    rel_ = "f.bin";
    expected_ = workload::expected_contents(rel_, kFileBytes);
    ASSERT_TRUE(storage::write_file(pfs_root_ + "/" + rel_,
                                    expected_.data(), expected_.size())
                    .ok());
    server::NodeRuntimeOptions o;
    o.pfs_root = pfs_root_;
    o.cache_root = temp_dir("cache");
    node_ = std::make_unique<server::NodeRuntime>(o);
    ASSERT_TRUE(node_->start().ok());
  }

  HvacClientOptions base_options() const {
    HvacClientOptions o;
    o.dataset_dir = pfs_root_;
    o.server_endpoints = node_->endpoints();
    return o;
  }

  std::string pfs_root_, rel_;
  std::vector<uint8_t> expected_;
  std::unique_ptr<server::NodeRuntime> node_;
};

TEST_F(EdgeFixture, ReadAtAndPastEofReturnsZero) {
  HvacClient client(base_options());
  auto vfd = client.open(pfs_root_ + "/" + rel_);
  ASSERT_TRUE(vfd.ok());
  uint8_t buf[64];
  // Exactly at EOF.
  ASSERT_EQ(client.lseek(*vfd, 0, SEEK_END).value(), 80'000);
  EXPECT_EQ(client.read(*vfd, buf, sizeof(buf)).value(), 0u);
  // Far past EOF via pread.
  EXPECT_EQ(client.pread(*vfd, buf, sizeof(buf), 1u << 30).value(), 0u);
  // Short final read.
  ASSERT_EQ(client.lseek(*vfd, 79'990, SEEK_SET).value(), 79'990);
  EXPECT_EQ(client.read(*vfd, buf, sizeof(buf)).value(), 10u);
  ASSERT_TRUE(client.close(*vfd).ok());
}

TEST_F(EdgeFixture, BadFdOperationsReportBadFd) {
  HvacClient client(base_options());
  uint8_t buf[8];
  EXPECT_EQ(client.read(12345 + (1 << 20), buf, 8).error().code,
            ErrorCode::kBadFd);
  EXPECT_EQ(client.lseek(12345 + (1 << 20), 0, SEEK_SET).error().code,
            ErrorCode::kBadFd);
  EXPECT_EQ(client.close(12345 + (1 << 20)).error().code,
            ErrorCode::kBadFd);
}

TEST_F(EdgeFixture, DoubleCloseFails) {
  HvacClient client(base_options());
  auto vfd = client.open(pfs_root_ + "/" + rel_);
  ASSERT_TRUE(vfd.ok());
  EXPECT_TRUE(client.close(*vfd).ok());
  EXPECT_FALSE(client.close(*vfd).ok());
}

TEST_F(EdgeFixture, TinyChunkSizeStillCorrect) {
  // Force many bulk RPCs per read: 512-byte chunks over an 80 KB file.
  auto options = base_options();
  options.read_chunk_bytes = 512;
  HvacClient client(options);
  auto vfd = client.open(pfs_root_ + "/" + rel_);
  ASSERT_TRUE(vfd.ok());
  std::vector<uint8_t> data(expected_.size());
  const auto n = client.pread(*vfd, data.data(), data.size(), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, expected_.size());
  EXPECT_EQ(data, expected_);
  ASSERT_TRUE(client.close(*vfd).ok());
}

TEST_F(EdgeFixture, UnnormalizedPathsResolve) {
  HvacClient client(base_options());
  const std::string messy =
      pfs_root_ + "/./sub/../" + rel_;  // normalizes to f.bin
  auto vfd = client.open(messy);
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  ASSERT_TRUE(client.close(*vfd).ok());
  EXPECT_EQ(client.home_of(messy), client.home_of(pfs_root_ + "/" + rel_));
}

TEST_F(EdgeFixture, SequentialThenSeekInterleavedOffsets) {
  HvacClient client(base_options());
  auto vfd = client.open(pfs_root_ + "/" + rel_);
  ASSERT_TRUE(vfd.ok());
  uint8_t a[10], b[10];
  ASSERT_TRUE(client.read(*vfd, a, 10).ok());   // offset now 10
  ASSERT_TRUE(client.pread(*vfd, b, 10, 0).ok());  // must not move it
  ASSERT_TRUE(client.read(*vfd, b, 10).ok());   // continues at 10
  EXPECT_TRUE(std::equal(b, b + 10, expected_.begin() + 10));
  ASSERT_TRUE(client.close(*vfd).ok());
}

TEST(ClientEnv, OptionsFromEnvRoundTrip) {
  ::setenv("HVAC_DATASET_DIR", "/data//set/", 1);
  ::setenv("HVAC_SERVERS", "127.0.0.1:1,127.0.0.1:2", 1);
  ::setenv("HVAC_REPLICAS", "2", 1);
  ::setenv("HVAC_PLACEMENT", "rendezvous", 1);
  ::setenv("HVAC_SEGMENT_BYTES", "1048576", 1);
  const auto o = client::options_from_env();
  ASSERT_TRUE(o.ok());
  EXPECT_EQ(o->dataset_dir, "/data/set");
  EXPECT_EQ(o->server_endpoints.size(), 2u);
  EXPECT_EQ(o->replicas, 2u);
  EXPECT_EQ(o->placement, core::PlacementPolicy::kRendezvous);
  EXPECT_EQ(o->segment_bytes, 1048576u);
  ::unsetenv("HVAC_DATASET_DIR");
  EXPECT_FALSE(client::options_from_env().ok());
  ::setenv("HVAC_DATASET_DIR", "/data/set", 1);
  ::unsetenv("HVAC_SERVERS");
  EXPECT_FALSE(client::options_from_env().ok());
  ::unsetenv("HVAC_DATASET_DIR");
  ::unsetenv("HVAC_REPLICAS");
  ::unsetenv("HVAC_PLACEMENT");
  ::unsetenv("HVAC_SEGMENT_BYTES");
}

TEST_F(EdgeFixture, StatSizeFallsBackWhenServersDie) {
  auto options = base_options();
  options.rpc.connect_timeout_ms = 200;
  options.rpc.recv_timeout_ms = 200;
  HvacClient client(options);
  node_->stop();
  const auto size = client.stat_size(pfs_root_ + "/" + rel_);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, expected_.size());
}

// ---- read-ahead -----------------------------------------------------------

TEST_F(EdgeFixture, ReadAheadSequentialStreamIsCorrectAndHits) {
  auto options = base_options();
  options.server_endpoints = over_tcp(options.server_endpoints);
  options.read_chunk_bytes = 1024;  // 79 chunks over the 80 KB file
  options.readahead_chunks = 3;
  HvacClient client(options);
  auto vfd = client.open(pfs_root_ + "/" + rel_);
  ASSERT_TRUE(vfd.ok());

  // Stream front to back in chunk-sized reads — the DL sample pattern
  // the read-ahead targets.
  std::vector<uint8_t> data(expected_.size());
  size_t pos = 0;
  while (pos < data.size()) {
    const auto n = client.read(*vfd, data.data() + pos, 1024);
    ASSERT_TRUE(n.ok());
    if (*n == 0) break;
    pos += *n;
  }
  EXPECT_EQ(pos, expected_.size());
  EXPECT_EQ(data, expected_);
  ASSERT_TRUE(client.close(*vfd).ok());

  const auto s = client.stats();
  EXPECT_GT(s.readahead_issued, 0u);
  EXPECT_GT(s.readahead_hits, 0u);
  EXPECT_LE(s.readahead_hits, s.readahead_issued);
}

TEST_F(EdgeFixture, ReadAheadSurvivesRandomAccess) {
  auto options = base_options();
  options.read_chunk_bytes = 1024;
  options.readahead_chunks = 2;
  HvacClient client(options);
  auto vfd = client.open(pfs_root_ + "/" + rel_);
  ASSERT_TRUE(vfd.ok());

  // Sequential run to spin the window up, then random jumps that must
  // invalidate it, then sequential again — bytes must stay correct
  // throughout.
  std::vector<uint8_t> buf(1024);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.pread(*vfd, buf.data(), 1024, i * 1024u).ok());
    EXPECT_TRUE(std::equal(buf.begin(), buf.end(),
                           expected_.begin() + i * 1024));
  }
  for (const uint64_t off : {9000u, 300u, 17'500u, 0u}) {
    const auto n = client.pread(*vfd, buf.data(), 1024, off);
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(*n, std::min<size_t>(1024, expected_.size() - off));
    EXPECT_TRUE(std::equal(buf.begin(), buf.begin() + *n,
                           expected_.begin() + off));
  }
  for (int i = 10; i < 14; ++i) {
    ASSERT_TRUE(client.pread(*vfd, buf.data(), 1024, i * 1024u).ok());
    EXPECT_TRUE(std::equal(buf.begin(), buf.end(),
                           expected_.begin() + i * 1024));
  }
  ASSERT_TRUE(client.close(*vfd).ok());
}

TEST_F(EdgeFixture, ReadAheadDisabledMatchesSeedBehaviour) {
  auto options = base_options();
  options.read_chunk_bytes = 1024;
  options.readahead_chunks = 0;  // HVAC_READAHEAD=0
  HvacClient client(options);
  auto vfd = client.open(pfs_root_ + "/" + rel_);
  ASSERT_TRUE(vfd.ok());
  std::vector<uint8_t> data(expected_.size());
  ASSERT_EQ(client.pread(*vfd, data.data(), data.size(), 0).value(),
            expected_.size());
  EXPECT_EQ(data, expected_);
  ASSERT_TRUE(client.close(*vfd).ok());
  EXPECT_EQ(client.stats().readahead_issued, 0u);
  EXPECT_EQ(client.stats().readahead_hits, 0u);
}

TEST_F(EdgeFixture, ReadAheadFailsOpenWhenServersDie) {
  auto options = base_options();
  options.read_chunk_bytes = 1024;
  options.readahead_chunks = 2;
  options.rpc.connect_timeout_ms = 200;
  options.rpc.recv_timeout_ms = 200;
  HvacClient client(options);
  auto vfd = client.open(pfs_root_ + "/" + rel_);
  ASSERT_TRUE(vfd.ok());

  // Spin the window up, then kill the servers: pending chunks turn
  // into transport errors that must degrade to the PFS, not corrupt
  // the stream.
  std::vector<uint8_t> data(expected_.size());
  ASSERT_EQ(client.pread(*vfd, data.data(), 2048, 0).value(), 2048u);
  node_->stop();
  size_t pos = 2048;
  while (pos < data.size()) {
    const auto n = client.pread(*vfd, data.data() + pos,
                                data.size() - pos, pos);
    ASSERT_TRUE(n.ok()) << n.error().to_string();
    if (*n == 0) break;
    pos += *n;
  }
  EXPECT_EQ(pos, expected_.size());
  EXPECT_EQ(data, expected_);
}

// A server whose frame bound admits opens (tiny request) but drops
// every read (20-byte header + path exceeds 16 bytes) is the nastiest
// failure shape: the open succeeds, then every read dies. The file is
// larger than proto::kMaxInlineBytes so its bytes are not in the open
// reply. The recovery budget must bottom out at the PFS instead of
// recursing, and the stream must stay byte-exact — the fd-table's
// logical offset is the only position that survives the mid-stream
// swap.
TEST(HostileServer, OpensPassReadsDroppedDegradesToPfsExactly) {
  const std::string pfs_root = temp_dir("hostile_pfs");
  const std::string rel = "h.bin";
  const auto expected = workload::expected_contents(rel, 100'000);
  ASSERT_TRUE(storage::write_file(pfs_root + "/" + rel,
                                  expected.data(), expected.size())
                  .ok());

  // The bound is read from the environment at server construction;
  // scope it tightly so parallel tests never see it.
  ASSERT_EQ(::setenv("HVAC_MAX_FRAME_BYTES", "16", 1), 0);
  server::NodeRuntimeOptions o;
  o.pfs_root = pfs_root;
  o.cache_root = temp_dir("hostile_cache");
  auto node = std::make_unique<server::NodeRuntime>(o);
  const auto started = node->start();
  ::unsetenv("HVAC_MAX_FRAME_BYTES");
  ASSERT_TRUE(started.ok());

  HvacClientOptions co;
  co.dataset_dir = pfs_root;
  co.server_endpoints = node->endpoints();
  co.read_chunk_bytes = 4096;
  co.rpc.connect_timeout_ms = 500;
  co.rpc.recv_timeout_ms = 500;
  HvacClient client(co);

  auto vfd = client.open(pfs_root + "/" + rel);
  ASSERT_TRUE(vfd.ok());

  // Sequential read() drives both the bounded recovery and the
  // logical-offset bookkeeping: a kernel-offset desync would double
  // or skip bytes here.
  std::vector<uint8_t> data;
  data.reserve(expected.size());
  uint8_t buf[3000];
  for (;;) {
    const auto n = client.read(*vfd, buf, sizeof(buf));
    ASSERT_TRUE(n.ok()) << n.error().to_string();
    if (*n == 0) break;
    data.insert(data.end(), buf, buf + *n);
    ASSERT_LE(data.size(), expected.size());
  }
  EXPECT_EQ(data, expected);

  // And the positional path straddling a recovery boundary.
  std::vector<uint8_t> tail(expected.size() - 5'000);
  const auto n = client.pread(*vfd, tail.data(), tail.size(), 5'000);
  ASSERT_TRUE(n.ok()) << n.error().to_string();
  ASSERT_EQ(*n, tail.size());
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(),
                         expected.begin() + 5'000));
  ASSERT_TRUE(client.close(*vfd).ok());
  node->stop();
}

// Same hostile shape with the PFS escape hatch closed: the bounded
// recovery budget must surface an error after kMaxRecoveries instead
// of looping open/fail forever. Over TCP: on the node-local alias the
// open would pass a cache fd and no read would meet the frame bound.
TEST(HostileServer, RecoveryBudgetExhaustsWithoutPfsFallback) {
  const std::string pfs_root = temp_dir("budget_pfs");
  const std::string rel = "b.bin";
  const auto expected = workload::expected_contents(rel, 80'000);
  ASSERT_TRUE(storage::write_file(pfs_root + "/" + rel,
                                  expected.data(), expected.size())
                  .ok());

  ASSERT_EQ(::setenv("HVAC_MAX_FRAME_BYTES", "16", 1), 0);
  server::NodeRuntimeOptions o;
  o.pfs_root = pfs_root;
  o.cache_root = temp_dir("budget_cache");
  auto node = std::make_unique<server::NodeRuntime>(o);
  const auto started = node->start();
  ::unsetenv("HVAC_MAX_FRAME_BYTES");
  ASSERT_TRUE(started.ok());

  HvacClientOptions co;
  co.dataset_dir = pfs_root;
  co.server_endpoints = over_tcp(node->endpoints());
  co.allow_pfs_fallback = false;
  co.rpc.connect_timeout_ms = 500;
  co.rpc.recv_timeout_ms = 500;
  co.rpc.max_retries = 0;
  HvacClient client(co);

  auto vfd = client.open(pfs_root + "/" + rel);
  ASSERT_TRUE(vfd.ok());  // tiny open frames pass the 16-byte bound

  uint8_t buf[256];
  const auto t0 = std::chrono::steady_clock::now();
  const auto n = client.pread(*vfd, buf, sizeof(buf), 0);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.error().code, ErrorCode::kUnavailable);
  // At most kMaxRecoveries retargets plus the dropped reads, each
  // bounded by the 500 ms recv timeout — nowhere near an unbounded
  // loop.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed)
                .count(),
            20);

  // The fd is still usable bookkeeping-wise: close must not hang.
  (void)client.close(*vfd);
  node->stop();
}

// ---- hostile inline kOpen replies ------------------------------------------
//
// A stateless kOpen reply carries the whole file when it is at most
// proto::kMaxInlineBytes. A reply whose blob disagrees with its size
// must be rejected with kProtocol and recovered like a dead server —
// the replica, then the PFS — never handed to the application as
// short or extra bytes.

// kOpen replies for a file of `real_size` bytes, each malformed in
// one way.
std::vector<std::pair<std::string, rpc::Bytes>> hostile_open_replies(
    const std::vector<uint8_t>& real) {
  auto reply = [](uint64_t size, const uint8_t* data, size_t n) {
    rpc::WireWriter w;
    w.put_u64(0);
    w.put_u64(size);
    w.put_u8(proto::kFromCache);
    w.put_blob(data, n);
    return std::move(w).take();
  };
  std::vector<uint8_t> longer(real);
  longer.push_back(0xab);
  std::vector<std::pair<std::string, rpc::Bytes>> out;
  out.emplace_back("blob_longer_than_size",
                   reply(real.size(), longer.data(), longer.size()));
  out.emplace_back("blob_shorter_than_size",
                   reply(real.size(), real.data(), real.size() - 1));
  out.emplace_back("blob_for_large_file",
                   reply(proto::kMaxInlineBytes + 1, real.data(), 16));
  rpc::Bytes truncated = reply(real.size(), real.data(), real.size());
  truncated.resize(truncated.size() - 7);  // blob cut short of its prefix
  out.emplace_back("truncated_tail", std::move(truncated));
  rpc::WireWriter no_blob;  // the legacy prefix alone
  no_blob.put_u64(7);
  no_blob.put_u64(real.size());
  no_blob.put_u8(proto::kFromCache);
  out.emplace_back("missing_blob", std::move(no_blob).take());
  return out;
}

// An RPC server that answers every kOpen with `reply`.
std::unique_ptr<rpc::RpcServer> hostile_open_server(rpc::Bytes reply) {
  auto server = std::make_unique<rpc::RpcServer>(rpc::RpcServerOptions{});
  server->register_handler(proto::kOpen,
                           [reply](const rpc::Bytes&) -> Result<rpc::Bytes> {
                             return reply;
                           });
  EXPECT_TRUE(server->start().ok());
  return server;
}

// One small file on the PFS plus a real server for it. `packed`: the
// file is packed into container 0 and its original deleted.
struct InlineRig {
  explicit InlineRig(bool packed = false) {
    pfs_root_ = temp_dir("inline_pfs");
    rel_ = "small.bin";
    expected_ = workload::expected_contents(rel_, 3'000);
    EXPECT_TRUE(storage::write_file(pfs_root_ + "/" + rel_,
                                    expected_.data(), expected_.size())
                    .ok());
    if (packed) {
      EXPECT_TRUE(storage::pack_tree(pfs_root_).ok());
      fs::remove(pfs_root_ + "/" + rel_);
    }
    server::NodeRuntimeOptions o;
    o.pfs_root = pfs_root_;
    o.cache_root = temp_dir("inline_cache");
    node_ = std::make_unique<server::NodeRuntime>(o);
    EXPECT_TRUE(node_->start().ok());
  }

  HvacClientOptions options(std::vector<std::string> endpoints) const {
    HvacClientOptions o;
    o.dataset_dir = pfs_root_;
    o.server_endpoints = std::move(endpoints);
    o.rpc.max_retries = 0;
    return o;
  }

  // Reads the whole file through a fresh vfd and closes it.
  std::vector<uint8_t> read_all(HvacClient& client) {
    auto vfd = client.open(pfs_root_ + "/" + rel_);
    EXPECT_TRUE(vfd.ok()) << vfd.error().to_string();
    if (!vfd.ok()) return {};
    std::vector<uint8_t> data(expected_.size() + 64);
    size_t pos = 0;
    for (;;) {
      const auto n = client.read(*vfd, data.data() + pos, 1000);
      EXPECT_TRUE(n.ok()) << n.error().to_string();
      if (!n.ok() || *n == 0) break;
      pos += *n;
      if (pos + 1000 > data.size()) break;
    }
    EXPECT_TRUE(client.close(*vfd).ok());
    data.resize(pos);
    return data;
  }

  uint64_t real_opens() const {
    auto lat = node_->aggregated_frame().op_latency;
    return lat.count(proto::kOpen) ? lat.at(proto::kOpen).count : 0;
  }

  std::string pfs_root_, rel_;
  std::vector<uint8_t> expected_;
  std::unique_ptr<server::NodeRuntime> node_;
};

// Over TCP: a same-uid peer on the node-local alias is sent a slab
// reference instead of the bytes (DESIGN.md §20).
TEST(InlineOpen, SmallFileServedWithoutReadRpc) {
  InlineRig rig;
  std::vector<std::string> tcp;
  for (const std::string& e : rig.node_->endpoints()) {
    tcp.push_back("localhost:" + e.substr(e.rfind(':') + 1));
  }
  HvacClient client(rig.options(tcp));
  // A miss (fetched, then inlined), then a hit answered on the reactor.
  EXPECT_EQ(rig.read_all(client), rig.expected_);
  EXPECT_EQ(rig.read_all(client), rig.expected_);
  const auto lat = rig.node_->aggregated_frame().op_latency;
  EXPECT_EQ(lat.at(proto::kOpen).count, 2u);
  EXPECT_EQ(lat.count(proto::kReadScatter), 0u);
  EXPECT_EQ(lat.count(proto::kRead), 0u);
  EXPECT_EQ(lat.count(proto::kClose), 0u);
  EXPECT_EQ(rig.node_->instance(0).open_remote_fds(), 0u);
  EXPECT_EQ(client.stats().passed_fd_opens, 0u);
}

TEST(HostileServer, InlineReplyRejectedAndRecoveredViaReplica) {
  InlineRig rig;
  for (auto& [name, reply] : hostile_open_replies(rig.expected_)) {
    SCOPED_TRACE(name);
    rpc::HealthRegistry::global().reset();
    auto hostile = hostile_open_server(reply);
    // Place the hostile server at the file's primary home and the real
    // one at its replica.
    std::vector<std::string> endpoints = {hostile->endpoint().address,
                                          rig.node_->endpoints()[0]};
    auto o = rig.options(endpoints);
    o.replicas = 2;
    if (HvacClient(o).home_of(rig.pfs_root_ + "/" + rig.rel_) != 0) {
      std::swap(endpoints[0], endpoints[1]);
      o.server_endpoints = endpoints;
    }
    HvacClient client(o);
    const uint64_t opens_before = rig.real_opens();
    EXPECT_EQ(rig.read_all(client), rig.expected_);
    EXPECT_EQ(rig.real_opens(), opens_before + 1);  // the replica served
    EXPECT_EQ(client.stats().failovers, 1u);
    EXPECT_EQ(client.stats().fallback_opens, 0u);
    hostile->stop();
  }
  rpc::HealthRegistry::global().reset();
}

TEST(HostileServer, InlineReplyRejectedAndRecoveredViaPfs) {
  InlineRig rig;
  for (auto& [name, reply] : hostile_open_replies(rig.expected_)) {
    SCOPED_TRACE(name);
    rpc::HealthRegistry::global().reset();
    auto hostile = hostile_open_server(reply);
    HvacClient client(rig.options({hostile->endpoint().address}));
    EXPECT_EQ(rig.read_all(client), rig.expected_);
    EXPECT_EQ(client.stats().fallback_opens, 1u);

    // With the PFS escape hatch closed the open fails with the
    // protocol error instead of serving wrong bytes.
    auto closed = rig.options({hostile->endpoint().address});
    closed.allow_pfs_fallback = false;
    HvacClient strict(closed);
    const auto vfd = strict.open(rig.pfs_root_ + "/" + rig.rel_);
    ASSERT_FALSE(vfd.ok());
    EXPECT_EQ(vfd.error().code, ErrorCode::kProtocol);
    hostile->stop();
  }
  rpc::HealthRegistry::global().reset();
}

// ---- hostile whole-file scatter replies -------------------------------------
//
// A small packed sample's open carries no bytes, so its first read
// fetches it whole: one path-mode kReadScatter for [0, size). A reply
// that is not exactly that one extent is treated like a dead server —
// the replica, then the PFS — and never handed to the application.

// kReadScatter replies for a whole-file request of `real`, each
// malformed in one way.
std::vector<std::pair<std::string, rpc::Bytes>> hostile_scatter_replies(
    const std::vector<uint8_t>& real) {
  auto reply = [](std::vector<std::pair<uint64_t, uint32_t>> extents,
                  const std::vector<uint8_t>& data) {
    rpc::WireWriter w;
    w.put_u32(static_cast<uint32_t>(extents.size()));
    for (const auto& [off, len] : extents) {
      w.put_u64(off);
      w.put_u32(len);
    }
    rpc::Bytes out = std::move(w).take();
    out.insert(out.end(), data.begin(), data.end());
    return out;
  };
  const auto size = static_cast<uint32_t>(real.size());
  std::vector<uint8_t> longer(real);
  longer.push_back(0xab);
  const std::vector<uint8_t> shorter(real.begin(), real.end() - 1);
  std::vector<std::pair<std::string, rpc::Bytes>> out;
  out.emplace_back("short_extent", reply({{0, size - 1}}, shorter));
  out.emplace_back("overlong_extent", reply({{0, size + 1}}, longer));
  out.emplace_back("wrong_offset", reply({{1, size}}, real));
  out.emplace_back("two_extents",
                   reply({{0, size / 2}, {size / 2, size - size / 2}}, real));
  rpc::WireWriter truncated;  // one extent announced, half its entry sent
  truncated.put_u32(1);
  truncated.put_u64(0);
  out.emplace_back("truncated_table", std::move(truncated).take());
  return out;
}

// An RPC server that answers kPackedIndex honestly, with the index
// packed under `pfs_root`, and every kReadScatter with `reply`.
std::unique_ptr<rpc::RpcServer> hostile_scatter_server(
    const std::string& pfs_root, rpc::Bytes reply) {
  auto server = std::make_unique<rpc::RpcServer>(rpc::RpcServerOptions{});
  auto index =
      storage::read_file(pfs_root + "/" + storage::packed_index_logical());
  EXPECT_TRUE(index.ok());
  rpc::WireWriter w;
  w.put_u8(1);  // present
  w.put_blob(index->data(), index->size());
  server->register_handler(
      proto::kPackedIndex, [index = std::move(w).take()](const rpc::Bytes&)
                               -> Result<rpc::Bytes> { return index; });
  server->register_handler(proto::kReadScatter,
                           [reply](const rpc::Bytes&) -> Result<rpc::Bytes> {
                             return reply;
                           });
  EXPECT_TRUE(server->start().ok());
  return server;
}

TEST(HostileServer, WholeFileScatterRejectedAndRecoveredViaReplica) {
  InlineRig rig(/*packed=*/true);
  const std::string container =
      rig.pfs_root_ + "/" + storage::packed_container_logical(0);
  for (auto& [name, reply] : hostile_scatter_replies(rig.expected_)) {
    SCOPED_TRACE(name);
    rpc::HealthRegistry::global().reset();
    auto hostile = hostile_scatter_server(rig.pfs_root_, reply);
    // Place the hostile server at the container's primary home and the
    // real one at its replica.
    std::vector<std::string> endpoints = {hostile->endpoint().address,
                                          rig.node_->endpoints()[0]};
    auto o = rig.options(endpoints);
    o.replicas = 2;
    if (HvacClient(o).home_of(container) != 0) {
      std::swap(endpoints[0], endpoints[1]);
      o.server_endpoints = endpoints;
    }
    HvacClient client(o);
    const auto lat = rig.node_->aggregated_frame().op_latency;
    const uint64_t scatters_before =
        lat.count(proto::kReadScatter) ? lat.at(proto::kReadScatter).count
                                       : 0;
    EXPECT_EQ(rig.read_all(client), rig.expected_);
    EXPECT_EQ(rig.node_->aggregated_frame().op_latency.at(
                  proto::kReadScatter).count,
              scatters_before + 1);  // the replica served
    EXPECT_EQ(rig.real_opens(), 0u);
    EXPECT_EQ(client.stats().failovers, 1u);
    EXPECT_EQ(client.stats().fallback_opens, 0u);
    hostile->stop();
  }
  rpc::HealthRegistry::global().reset();
}

TEST(HostileServer, WholeFileScatterRejectedAndRecoveredViaPfs) {
  InlineRig rig(/*packed=*/true);
  for (auto& [name, reply] : hostile_scatter_replies(rig.expected_)) {
    SCOPED_TRACE(name);
    rpc::HealthRegistry::global().reset();
    auto hostile = hostile_scatter_server(rig.pfs_root_, reply);
    auto o = rig.options({hostile->endpoint().address});
    HvacClient client(o);
    // The PFS copy is read out of the container.
    EXPECT_EQ(rig.read_all(client), rig.expected_);
    EXPECT_EQ(client.stats().fallback_opens, 1u);

    // With the PFS escape hatch closed the read fails instead of
    // serving wrong bytes.
    o.allow_pfs_fallback = false;
    HvacClient strict(o);
    const auto vfd = strict.open(rig.pfs_root_ + "/" + rig.rel_);
    ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
    std::vector<uint8_t> buf(rig.expected_.size(), 0);
    const auto n = strict.pread(*vfd, buf.data(), buf.size(), 0);
    EXPECT_FALSE(n.ok());
    EXPECT_EQ(buf, std::vector<uint8_t>(rig.expected_.size(), 0));
    EXPECT_TRUE(strict.close(*vfd).ok());
    hostile->stop();
  }
  rpc::HealthRegistry::global().reset();
}

// ---- concurrent read() on one vfd ------------------------------------------

// Four threads read() one vfd in 1 KiB pieces until EOF. read(2)
// reserves each range atomically, so every byte is delivered exactly
// once: the pieces, put back together by offset, are the file.
TEST(ConcurrentRead, SharedVfdDeliversEveryByteOnce) {
  const std::string pfs_root = temp_dir("shared_read_pfs");
  server::NodeRuntimeOptions no;
  no.pfs_root = pfs_root;
  no.cache_root = temp_dir("shared_read_cache");
  server::NodeRuntime node(no);
  // Each 4-byte word holds its own offset, so a piece names its place.
  const std::vector<uint64_t> sizes = {256u << 10, 40u << 10};
  std::vector<std::vector<uint8_t>> files;
  for (size_t f = 0; f < sizes.size(); ++f) {
    std::vector<uint8_t> data(sizes[f]);
    for (uint32_t off = 0; off < data.size(); off += 4) {
      std::memcpy(data.data() + off, &off, 4);
    }
    ASSERT_TRUE(storage::write_file(pfs_root + "/f" + std::to_string(f),
                                    data.data(), data.size())
                    .ok());
    files.push_back(std::move(data));
  }
  ASSERT_TRUE(node.start().ok());
  HvacClientOptions o;
  o.dataset_dir = pfs_root;
  o.server_endpoints = node.endpoints();
  o.read_chunk_bytes = 4096;
  HvacClient client(o);

  for (size_t f = 0; f < files.size(); ++f) {
    SCOPED_TRACE(sizes[f]);
    const auto vfd = client.open(pfs_root + "/f" + std::to_string(f));
    ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
    constexpr int kThreads = 4;
    constexpr size_t kPiece = 1024;
    std::atomic<int> ready{0};
    std::atomic<bool> failed{false};
    std::vector<std::vector<std::vector<uint8_t>>> pieces(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        for (;;) {
          std::vector<uint8_t> piece(kPiece);
          const auto n = client.read(*vfd, piece.data(), piece.size());
          if (!n.ok()) {
            failed = true;
            return;
          }
          if (*n == 0) return;
          piece.resize(*n);
          pieces[t].push_back(std::move(piece));
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_FALSE(failed.load());
    std::map<uint32_t, std::vector<uint8_t>> by_offset;
    size_t duplicates = 0;
    for (auto& list : pieces) {
      for (auto& piece : list) {
        ASSERT_GE(piece.size(), 4u);
        uint32_t off = 0;
        std::memcpy(&off, piece.data(), 4);
        if (!by_offset.emplace(off, std::move(piece)).second) ++duplicates;
      }
    }
    EXPECT_EQ(duplicates, 0u);
    std::vector<uint8_t> joined;
    for (const auto& [off, piece] : by_offset) {
      EXPECT_EQ(off, joined.size());
      joined.insert(joined.end(), piece.begin(), piece.end());
    }
    EXPECT_EQ(joined, files[f]);
    EXPECT_TRUE(client.close(*vfd).ok());
  }
  node.stop();
}

}  // namespace
}  // namespace hvac
