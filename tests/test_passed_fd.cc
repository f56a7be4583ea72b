// One slab fd per reader (DESIGN.md §20): a local kOpen of a
// slab-cached file names its slab, the first such reply for a slab
// hands the client a read-only fd on it, and every read of the vfd is
// one pread on a slab fd the client holds. These tests pin the bytes,
// the fd's mode, one pass per slab, the held table's life across
// eviction, purge and fork, hostile replies, and every case that must
// keep today's replies instead.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "client/hvac_client.h"
#include "common/hash.h"
#include "rpc/health.h"
#include "rpc/protocol.h"
#include "rpc/rpc_client.h"
#include "rpc/rpc_server.h"
#include "rpc/socket.h"
#include "rpc/wire.h"
#include "server/hvac_proto.h"
#include "server/hvac_server.h"
#include "server/node_runtime.h"
#include "storage/packed_format.h"
#include "storage/pfs_backend.h"
#include "storage/posix_file.h"
#include "workload/file_tree.h"

namespace hvac {
namespace {

namespace fs = std::filesystem;
using client::HvacClient;
using client::HvacClientOptions;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "hvac_passfd_" + name +
                          "_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

constexpr size_t kLargeBytes = (1u << 20) + 12'345;
constexpr size_t kSmallBytes = proto::kMaxInlineBytes;  // inline over TCP

uint64_t op_count(const core::MetricsFrame& f, uint16_t op) {
  auto it = f.op_latency.find(op);
  return it == f.op_latency.end() ? 0 : it->second.count;
}

// This process's fds whose /proc/self/fd link satisfies `match`.
size_t fds_where(const std::function<bool(const std::string&)>& match) {
  size_t n = 0;
  for (const auto& e : fs::directory_iterator("/proc/self/fd")) {
    std::error_code ec;
    const std::string target = fs::read_symlink(e.path(), ec).string();
    if (!ec && match(target)) ++n;
  }
  return n;
}

size_t fds_on(const std::string& path) {
  return fds_where([&](const std::string& t) { return t == path; });
}

// Fds on slab files that are gone.
size_t deleted_slab_fds() {
  const std::string gone = ".slab (deleted)";
  return fds_where([&](const std::string& t) {
    return t.size() > gone.size() &&
           t.compare(t.size() - gone.size(), gone.size(), gone) == 0;
  });
}

// Runs `body` in a forked child whose fd table is full at a lowered
// RLIMIT_NOFILE, so a passed fd finds no slot (the kernel drops it and
// flags MSG_CTRUNC). The server in this process still opens its slab.
// Returns the child's exit code: `body`'s, or 100 when the setup
// failed.
int at_fd_limit(const std::function<int()>& body) {
  int highest = 0;
  for (const auto& e : fs::directory_iterator("/proc/self/fd")) {
    highest = std::max(highest, std::stoi(e.path().filename().string()));
  }
  const pid_t child = ::fork();
  if (child < 0) return 100;
  if (child == 0) {
    rlimit limit{};
    if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) ::_exit(100);
    limit.rlim_cur = static_cast<rlim_t>(highest) + 1;
    if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) ::_exit(100);
    while (::dup(0) >= 0) {
    }
    if (errno != EMFILE) ::_exit(100);
    ::_exit(body());
  }
  int status = 0;
  if (::waitpid(child, &status, 0) != child || !WIFEXITED(status)) return 100;
  return WEXITSTATUS(status);
}

// One large and one small file on the PFS, served by a one-instance
// node whose TCP endpoint also listens on its node-local alias.
class PassedFdRig : public ::testing::Test {
 protected:
  void SetUp() override {
    rpc::HealthRegistry::global().reset();
    pfs_root_ = temp_dir("pfs");
    large_ = workload::expected_contents("large.bin", kLargeBytes);
    small_ = workload::expected_contents("small.bin", kSmallBytes);
    ASSERT_TRUE(storage::write_file(pfs_root_ + "/large.bin", large_.data(),
                                    large_.size())
                    .ok());
    ASSERT_TRUE(storage::write_file(pfs_root_ + "/small.bin", small_.data(),
                                    small_.size())
                    .ok());
    server::NodeRuntimeOptions o;
    o.pfs_root = pfs_root_;
    cache_root_ = temp_dir("cache");
    o.cache_root = cache_root_;
    node_ = std::make_unique<server::NodeRuntime>(o);
    ASSERT_TRUE(node_->start().ok());
  }

  HvacClientOptions options() const {
    HvacClientOptions o;
    o.dataset_dir = pfs_root_;
    o.server_endpoints = node_->endpoints();
    o.meta_ttl_ms = 0;
    o.allow_pfs_fallback = false;
    return o;
  }

  // localhost:PORT names no alias: the client stays on TCP.
  std::vector<std::string> tcp_endpoints() const {
    std::vector<std::string> out;
    for (const std::string& e : node_->endpoints()) {
      out.push_back("localhost:" + e.substr(e.rfind(':') + 1));
    }
    return out;
  }

  server::HvacServer& server() { return node_->instance(0); }

  // Slab files left under the cache root.
  size_t slab_files() const {
    size_t n = 0;
    for (const auto& e : fs::recursive_directory_iterator(cache_root_)) {
      if (e.path().extension() == ".slab") ++n;
    }
    return n;
  }

  // Reads `count` bytes at `offset` of `vfd` and compares with `want`.
  static void expect_range(HvacClient& client, int vfd,
                           const std::vector<uint8_t>& want, uint64_t offset,
                           size_t count) {
    std::vector<uint8_t> buf(count);
    const auto n = client.pread(vfd, buf.data(), count, offset);
    ASSERT_TRUE(n.ok()) << n.error().to_string();
    const size_t expect_n =
        offset >= want.size()
            ? 0
            : static_cast<size_t>(std::min<uint64_t>(count,
                                                     want.size() - offset));
    ASSERT_EQ(*n, expect_n);
    EXPECT_TRUE(std::equal(buf.begin(), buf.begin() + expect_n,
                           want.begin() + offset));
  }

  // Reads the whole vfd front to back with read() in `step` chunks.
  static std::vector<uint8_t> read_all(HvacClient& client, int vfd,
                                       size_t step) {
    std::vector<uint8_t> out;
    std::vector<uint8_t> buf(step);
    for (;;) {
      const auto n = client.read(vfd, buf.data(), buf.size());
      EXPECT_TRUE(n.ok()) << n.error().to_string();
      if (!n.ok() || *n == 0) break;
      out.insert(out.end(), buf.begin(), buf.begin() + *n);
    }
    return out;
  }

  std::string pfs_root_, cache_root_;
  std::vector<uint8_t> large_, small_;
  std::unique_ptr<server::NodeRuntime> node_;
};

TEST_F(PassedFdRig, BytesMatchDirectReadsWithNoReadRpc) {
  HvacClient client(options());
  auto vfd = client.open(pfs_root_ + "/large.bin");
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  EXPECT_EQ(client.stats().passed_fd_opens, 1u);
  const uint64_t requests = server().rpc().requests_served();

  EXPECT_EQ(read_all(client, *vfd, 64 << 10), large_);
  for (uint64_t offset : {uint64_t{0}, uint64_t{1}, uint64_t{4095},
                          uint64_t{700'001}, uint64_t{kLargeBytes - 10},
                          uint64_t{kLargeBytes}, uint64_t{kLargeBytes + 9}}) {
    expect_range(client, *vfd, large_, offset, 100'000);
  }
  ASSERT_TRUE(client.close(*vfd).ok());

  // Not one RPC after the open: no scatter read, no read-ahead, no close.
  EXPECT_EQ(server().rpc().requests_served(), requests);
  const core::MetricsFrame f = server().metrics_frame();
  EXPECT_EQ(op_count(f, proto::kReadScatter), 0u);
  EXPECT_EQ(client.stats().readahead_issued, 0u);
  EXPECT_GE(f.zerocopy.fd_passes, 1u);
  EXPECT_GE(f.zerocopy.fd_pass_bytes, kLargeBytes);
  EXPECT_NE(client::stats_to_json(client.stats()).find("\"passed_fd_opens\":1"),
            std::string::npos);
}

// The fd a kOpen reply carries is a fresh O_RDONLY open (never the
// slab's own O_RDWR fd), close-on-exec, its inode the one the body
// names, and the body's base addresses the file inside the slab. A
// request that lists that inode gets the same body and no fd.
TEST_F(PassedFdRig, PassedFdIsReadOnlyAndAddressesTheSlot) {
  HvacClient warm(options());
  ASSERT_TRUE(warm.prefetch(pfs_root_ + "/large.bin").ok());

  rpc::RpcClient rc(rpc::Endpoint{node_->endpoints()[0]});
  auto open = [&](const std::vector<uint64_t>& held) {
    rpc::WireWriter w;
    w.put_string("large.bin");
    w.put_u8(1);  // stateless
    w.put_u8(1);  // takes_fd
    w.put_u8(static_cast<uint8_t>(held.size()));
    for (uint64_t ino : held) w.put_u64(ino);
    return rc.call_payload(proto::kOpen, w.bytes(), /*take_fd=*/true);
  };
  auto resp = open({});
  ASSERT_TRUE(resp.ok()) << resp.error().to_string();
  ASSERT_GE(resp->fd(), 0);
  const int fd = resp->fd();
  const int flags = ::fcntl(fd, F_GETFL);
  ASSERT_GE(flags, 0);
  EXPECT_EQ(flags & O_ACCMODE, O_RDONLY);
  EXPECT_NE(::fcntl(fd, F_GETFD) & FD_CLOEXEC, 0);
  const char byte = 'x';
  EXPECT_EQ(::write(fd, &byte, 1), -1);
  EXPECT_EQ(errno, EBADF);

  rpc::WireReader r(resp->data(), resp->size());
  EXPECT_EQ(r.get_u64().value(), 0u);            // remote_fd
  EXPECT_EQ(r.get_u64().value(), kLargeBytes);   // size
  EXPECT_EQ(r.get_u8().value(), proto::kFromCache);
  EXPECT_EQ(r.get_blob_view().value().size, 0u);  // nothing inline
  const uint64_t base = r.get_u64().value();
  const uint64_t ino = r.get_u64().value();
  EXPECT_TRUE(r.exhausted());
  struct stat st{};
  ASSERT_EQ(::fstat(fd, &st), 0);
  EXPECT_EQ(static_cast<uint64_t>(st.st_ino), ino);
  std::vector<uint8_t> bytes(kLargeBytes);
  ASSERT_EQ(::pread(fd, bytes.data(), bytes.size(), static_cast<off_t>(base)),
            static_cast<ssize_t>(kLargeBytes));
  EXPECT_EQ(bytes, large_);

  const uint64_t passes = server().metrics_frame().zerocopy.fd_passes;
  auto again = open({ino + 1, ino});
  ASSERT_TRUE(again.ok()) << again.error().to_string();
  EXPECT_EQ(again->fd(), -1);
  EXPECT_EQ(server().metrics_frame().zerocopy.fd_passes, passes);
  rpc::WireReader r2(again->data(), again->size());
  ASSERT_TRUE(r2.get_u64().ok());
  ASSERT_TRUE(r2.get_u64().ok());
  ASSERT_TRUE(r2.get_u8().ok());
  ASSERT_TRUE(r2.get_blob_view().ok());
  EXPECT_EQ(r2.get_u64().value(), base);
  EXPECT_EQ(r2.get_u64().value(), ino);
  EXPECT_TRUE(r2.exhausted());

  // A list longer than kMaxHeldSlabs is refused.
  auto overlong = open(std::vector<uint64_t>(proto::kMaxHeldSlabs + 1, ino));
  ASSERT_FALSE(overlong.ok());
  EXPECT_EQ(overlong.error().code, ErrorCode::kInvalidArgument);
}

// Slots are never rewritten and an open fd pins the inode: dropping
// the slab, or the whole cache, cannot change what a held fd reads.
TEST_F(PassedFdRig, HeldFdReadsSurviveEvictSlabAndPurge) {
  HvacClient client(options());
  for (const bool purge : {false, true}) {
    SCOPED_TRACE(purge ? "purge" : "evict_slab");
    auto vfd = client.open(pfs_root_ + "/large.bin");
    ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
    expect_range(client, *vfd, large_, 0, 300'000);
    if (purge) {
      server().cache().purge();
    } else {
      EXPECT_FALSE(server().cache().store().evict_slab("large.bin").empty());
    }
    EXPECT_FALSE(server().cache().store().contains("large.bin"));
    EXPECT_EQ(slab_files(), 0u);  // unlinked; the held fd pins the inode
    expect_range(client, *vfd, large_, 300'000, kLargeBytes);
    expect_range(client, *vfd, large_, 0, kLargeBytes);
    ASSERT_TRUE(client.close(*vfd).ok());
  }
  EXPECT_EQ(client.stats().passed_fd_opens, 2u);
}

// A forked child (a DataLoader worker) inherits the vfd table and the
// held slab table with it: its reads of an inherited vfd are the same
// pread, and its own open of another file in that slab lists the slab,
// takes no fd and reads through the inherited one.
TEST_F(PassedFdRig, ForkedChildReadsThroughInheritedEntry) {
  HvacClient client(options());
  ASSERT_TRUE(client.prefetch(pfs_root_ + "/small.bin").ok());
  auto vfd = client.open(pfs_root_ + "/large.bin");
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  ASSERT_EQ(client.stats().passed_fd_opens, 1u);
  const uint64_t passes = server().metrics_frame().zerocopy.fd_passes;
  const uint64_t scatters =
      op_count(server().metrics_frame(), proto::kReadScatter);
  auto hash = [](const std::vector<uint8_t>& b, size_t n) {
    return fnv1a64(
        std::string_view(reinterpret_cast<const char*>(b.data()), n));
  };
  const uint64_t want_large = hash(large_, large_.size());
  const uint64_t want_small = hash(small_, small_.size());
  std::vector<uint8_t> buf(kLargeBytes);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Exit codes: 0 exact, 1 inherited vfd, 2 open, 3 new vfd.
    auto n = client.pread(*vfd, buf.data(), buf.size(), 0);
    if (!n.ok() || *n != buf.size() || hash(buf, *n) != want_large) {
      ::_exit(1);
    }
    auto small = client.open(pfs_root_ + "/small.bin");
    if (!small.ok() || client.stats().passed_fd_opens != 2) ::_exit(2);
    n = client.pread(*small, buf.data(), buf.size(), 0);
    if (!n.ok() || *n != kSmallBytes || hash(buf, *n) != want_small) {
      ::_exit(3);
    }
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  const core::MetricsFrame f = server().metrics_frame();
  EXPECT_EQ(f.zerocopy.fd_passes, passes);  // the child listed the slab
  EXPECT_EQ(op_count(f, proto::kReadScatter), scatters);
  expect_range(client, *vfd, large_, 0, kLargeBytes);
  ASSERT_TRUE(client.close(*vfd).ok());
}

// A reader at RLIMIT_NOFILE has no slot for a passed fd: the kernel
// drops it (MSG_CTRUNC) and the reply's bytes still arrive, naming a
// slab the reader does not hold. The open asks again without takes_fd
// on the same connection and reads by RPC: no failover, no breaker
// strike. The prefetch dials the alias first, and holds no slab.
TEST_F(PassedFdRig, ReaderAtFdLimitFallsBackToRpcReads) {
  auto o = options();
  o.readahead_chunks = 0;  // no async channel, which would need an fd
  HvacClient client(o);
  ASSERT_TRUE(client.prefetch(pfs_root_ + "/large.bin").ok());
  const uint64_t passes = server().metrics_frame().zerocopy.fd_passes;
  const uint64_t want = fnv1a64(std::string_view(
      reinterpret_cast<const char*>(large_.data()), large_.size()));
  std::vector<uint8_t> buf(kLargeBytes);
  // Exit codes: 0 read by RPC with exact bytes, 2 open failed, 3 the
  // open took an fd or failed over, 4 wrong bytes.
  const int rc = at_fd_limit([&] {
    auto vfd = client.open(pfs_root_ + "/large.bin");
    if (!vfd.ok()) return 2;
    const client::ClientStats s = client.stats();
    if (s.passed_fd_opens != 0 || s.fallback_opens != 0 ||
        s.failovers != 0) {
      return 3;
    }
    const auto n = client.pread(*vfd, buf.data(), buf.size(), 0);
    const bool ok =
        n.ok() && *n == buf.size() &&
        fnv1a64(std::string_view(reinterpret_cast<const char*>(buf.data()),
                                 buf.size())) == want;
    return ok ? 0 : 4;
  });
  EXPECT_EQ(rc, 0);
  // The server did pass one for the slab, which the child's kernel
  // dropped.
  EXPECT_EQ(server().metrics_frame().zerocopy.fd_passes, passes + 1);
}

// A small file at the fd limit comes back as inline bytes on the
// second kOpen: no read RPC, no failover.
TEST_F(PassedFdRig, ReaderAtFdLimitGetsInlineBytes) {
  auto o = options();
  o.readahead_chunks = 0;
  HvacClient client(o);
  ASSERT_TRUE(client.prefetch(pfs_root_ + "/small.bin").ok());
  const core::MetricsFrame before = server().metrics_frame();
  std::vector<uint8_t> buf(kSmallBytes);
  // Exit codes: 0 exact inline bytes, 2 open failed, 3 the open took
  // an fd or failed over, 4 wrong bytes.
  const int rc = at_fd_limit([&] {
    auto vfd = client.open(pfs_root_ + "/small.bin");
    if (!vfd.ok()) return 2;
    const client::ClientStats s = client.stats();
    if (s.passed_fd_opens != 0 || s.fallback_opens != 0 ||
        s.failovers != 0) {
      return 3;
    }
    const auto n = client.pread(*vfd, buf.data(), buf.size(), 0);
    return n.ok() && buf == small_ ? 0 : 4;
  });
  EXPECT_EQ(rc, 0);
  const core::MetricsFrame after = server().metrics_frame();
  EXPECT_EQ(after.zerocopy.fd_passes, before.zerocopy.fd_passes + 1);
  EXPECT_EQ(op_count(after, proto::kOpen), op_count(before, proto::kOpen) + 2);
  EXPECT_EQ(op_count(after, proto::kReadScatter),
            op_count(before, proto::kReadScatter));
}

// Over the alias a small file is served like a large one: its kOpen
// names the slab and carries no bytes. Every file of one slab costs
// one fd pass per reader, and no read RPC.
TEST_F(PassedFdRig, SmallFilesShareOneSlabFd) {
  const uint64_t passes = server().metrics_frame().zerocopy.fd_passes;
  HvacClient local(options());
  for (int pass = 0; pass < 2; ++pass) {  // a miss, then a hit
    for (const std::string name : {"small.bin", "large.bin"}) {
      auto vfd = local.open(pfs_root_ + "/" + name);
      ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
      EXPECT_EQ(read_all(local, *vfd, 10'000),
                name == "small.bin" ? small_ : large_);
      ASSERT_TRUE(local.close(*vfd).ok());
    }
  }
  EXPECT_EQ(local.stats().passed_fd_opens, 4u);
  EXPECT_EQ(slab_files(), 1u);
  const core::MetricsFrame f = server().metrics_frame();
  EXPECT_EQ(f.zerocopy.fd_passes, passes + 1);
  EXPECT_EQ(op_count(f, proto::kReadScatter), 0u);
}

// TCP clients keep today's replies: inline bytes for a small file,
// RPC reads for a large one, and never an fd.
TEST_F(PassedFdRig, TcpClientsGetNoFd) {
  const uint64_t passes = server().metrics_frame().zerocopy.fd_passes;
  auto o = options();
  o.server_endpoints = tcp_endpoints();
  HvacClient tcp(o);
  for (int pass = 0; pass < 2; ++pass) {  // a miss, then a hit
    auto small = tcp.open(pfs_root_ + "/small.bin");
    ASSERT_TRUE(small.ok()) << small.error().to_string();
    EXPECT_EQ(read_all(tcp, *small, 10'000), small_);
    ASSERT_TRUE(tcp.close(*small).ok());
  }
  EXPECT_EQ(op_count(server().metrics_frame(), proto::kReadScatter), 0u);
  for (int pass = 0; pass < 2; ++pass) {
    auto vfd = tcp.open(pfs_root_ + "/large.bin");
    ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
    EXPECT_EQ(read_all(tcp, *vfd, 1 << 20), large_);
    ASSERT_TRUE(tcp.close(*vfd).ok());
  }
  EXPECT_EQ(tcp.stats().passed_fd_opens, 0u);
  EXPECT_GT(op_count(server().metrics_frame(), proto::kReadScatter), 0u);
  EXPECT_EQ(server().metrics_frame().zerocopy.fd_passes, passes);
}

// A slab dropped under open vfds (evict_slab) keeps serving them: the
// held fd pins the inode and slots are never rewritten. Once they are
// closed the client's table still holds the unlinked slab, until the
// next slab arrives and its st_nlink of 0 lets it go.
TEST_F(PassedFdRig, EvictedSlabLeavesTheTableWhenTheNextArrives) {
  HvacClient client(options());
  auto small = client.open(pfs_root_ + "/small.bin");
  ASSERT_TRUE(small.ok()) << small.error().to_string();
  auto large = client.open(pfs_root_ + "/large.bin");
  ASSERT_TRUE(large.ok()) << large.error().to_string();
  ASSERT_EQ(slab_files(), 1u);  // both in one slab
  const uint64_t passes = server().metrics_frame().zerocopy.fd_passes;
  EXPECT_EQ(server().cache().store().evict_slab("large.bin").size(), 2u);
  EXPECT_EQ(slab_files(), 0u);
  expect_range(client, *small, small_, 0, kSmallBytes);
  expect_range(client, *large, large_, 0, kLargeBytes);
  ASSERT_TRUE(client.close(*small).ok());
  ASSERT_TRUE(client.close(*large).ok());
  EXPECT_EQ(deleted_slab_fds(), 1u);  // the table's

  auto again = client.open(pfs_root_ + "/large.bin");  // refetched
  ASSERT_TRUE(again.ok()) << again.error().to_string();
  EXPECT_EQ(server().metrics_frame().zerocopy.fd_passes, passes + 1);
  EXPECT_EQ(deleted_slab_fds(), 0u);
  expect_range(client, *again, large_, 0, kLargeBytes);
  ASSERT_TRUE(client.close(*again).ok());
}

// 256 small files spread over several slabs (a 16 MiB store cuts
// 1 MiB slabs) read byte-exact with no read RPC, and the server passes
// exactly one fd per distinct slab.
TEST(PassedFd, ManySmallFilesOnePassPerSlab) {
  rpc::HealthRegistry::global().reset();
  const std::string root = temp_dir("many_pfs");
  const std::string cache = temp_dir("many_cache");
  constexpr int kFiles = 256;
  std::vector<std::vector<uint8_t>> want;
  std::vector<std::string> paths;
  fs::create_directories(root + "/s");
  for (int i = 0; i < kFiles; ++i) {
    const std::string rel = "s/" + std::to_string(i) + ".bin";
    want.push_back(workload::expected_contents(rel, 9'000 + 37 * i));
    paths.push_back(root + "/" + rel);
    ASSERT_TRUE(storage::write_file(paths.back(), want.back().data(),
                                    want.back().size())
                    .ok());
  }
  server::NodeRuntimeOptions o;
  o.pfs_root = root;
  o.cache_root = cache;
  o.cache_capacity_bytes_per_instance = 16u << 20;
  server::NodeRuntime node(o);
  ASSERT_TRUE(node.start().ok());
  HvacClientOptions co;
  co.dataset_dir = root;
  co.server_endpoints = node.endpoints();
  co.meta_ttl_ms = 0;
  co.allow_pfs_fallback = false;
  {
    HvacClient warm(co);
    ASSERT_EQ(warm.prefetch_many(paths).value(), paths.size());
  }
  size_t slabs = 0;
  for (const auto& e : fs::recursive_directory_iterator(cache)) {
    if (e.path().extension() == ".slab") ++slabs;
  }
  ASSERT_GT(slabs, 1u);
  ASSERT_LE(slabs, proto::kMaxHeldSlabs);
  const core::MetricsFrame before = node.aggregated_frame();

  HvacClient client(co);
  std::vector<uint8_t> buf(64 << 10);
  for (int i = 0; i < kFiles; ++i) {
    auto vfd = client.open(paths[i]);
    ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
    std::vector<uint8_t> got;
    for (;;) {
      auto n = client.read(*vfd, buf.data(), 8192);
      ASSERT_TRUE(n.ok()) << n.error().to_string();
      if (*n == 0) break;
      got.insert(got.end(), buf.begin(), buf.begin() + *n);
    }
    EXPECT_EQ(got, want[i]) << paths[i];
    ASSERT_TRUE(client.close(*vfd).ok());
  }
  const core::MetricsFrame after = node.aggregated_frame();
  EXPECT_EQ(after.zerocopy.fd_passes - before.zerocopy.fd_passes, slabs);
  EXPECT_EQ(op_count(after, proto::kOpen) - op_count(before, proto::kOpen),
            uint64_t{kFiles});
  EXPECT_EQ(op_count(after, proto::kReadScatter),
            op_count(before, proto::kReadScatter));
  EXPECT_EQ(client.stats().passed_fd_opens, uint64_t{kFiles});
}

// A write-back file is a named file that writes grow in place, not a
// slab slot: its reads stay RPCs.
TEST_F(PassedFdRig, WriteBackFilesGetNoFd) {
  HvacClient client(options());
  const std::string path = pfs_root_ + "/ckpt/model.bin";
  auto wfd = client.open_write(path, /*trunc=*/true);
  ASSERT_TRUE(wfd.ok()) << wfd.error().to_string();
  ASSERT_EQ(client.write(*wfd, large_.data(), large_.size()).value(),
            large_.size());
  ASSERT_TRUE(client.close(*wfd).ok());

  auto vfd = client.open(path);
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  EXPECT_EQ(read_all(client, *vfd, 1 << 20), large_);
  ASSERT_TRUE(client.close(*vfd).ok());
  EXPECT_EQ(client.stats().passed_fd_opens, 0u);
  EXPECT_GT(op_count(server().metrics_frame(), proto::kReadScatter), 0u);
}

// A local kWriteOpen passes a fresh O_WRONLY fd on the store's named
// file, and the client writes through it with no kWrite. A TCP writer
// and one at RLIMIT_NOFILE get no fd and write by kWrite; every PFS
// file is byte-exact after close.
TEST_F(PassedFdRig, WriteOpenPassesAWriteOnlyFdOnTheNamedFile) {
  rpc::RpcClient rc(rpc::Endpoint{node_->endpoints()[0]});
  rpc::WireWriter w;
  w.put_string("ckpt/raw.bin");
  w.put_u8(1);  // trunc
  w.put_u8(1);  // takes_fd
  auto resp = rc.call_payload(proto::kWriteOpen, w.bytes(), /*take_fd=*/true);
  ASSERT_TRUE(resp.ok()) << resp.error().to_string();
  ASSERT_GE(resp->fd(), 0);
  EXPECT_EQ(::fcntl(resp->fd(), F_GETFL) & O_ACCMODE, O_WRONLY);
  struct stat passed{};
  struct stat named{};
  ASSERT_EQ(::fstat(resp->fd(), &passed), 0);
  ASSERT_EQ(::stat(server().cache().store().physical_path("ckpt/raw.bin")
                       .c_str(),
                   &named),
            0);
  EXPECT_EQ(passed.st_ino, named.st_ino);

  auto write_file = [&](HvacClient& client, const std::string& rel) {
    auto wfd = client.open_write(pfs_root_ + "/" + rel, true);
    if (!wfd.ok()) return false;
    return client.write(*wfd, large_.data(), large_.size()).ok() &&
           client.fsync(*wfd).ok() && client.close(*wfd).ok();
  };
  auto pfs_copy = [&](const std::string& rel) {
    auto f = storage::read_file(pfs_root_ + "/" + rel);
    for (int i = 0; i < 500 && (!f.ok() || f->size() != large_.size()); ++i) {
      ::usleep(10 * 1000);
      f = storage::read_file(pfs_root_ + "/" + rel);
    }
    return f.ok() ? *f : std::vector<uint8_t>{};
  };
  const uint64_t writes0 = server().metrics_frame().write_back.writes;
  {
    HvacClient local(options());
    ASSERT_TRUE(write_file(local, "ckpt/local.bin"));
  }
  EXPECT_EQ(server().metrics_frame().write_back.writes, writes0);
  EXPECT_EQ(pfs_copy("ckpt/local.bin"), large_);

  HvacClientOptions tcp = options();
  tcp.server_endpoints = tcp_endpoints();
  {
    HvacClient remote(tcp);
    ASSERT_TRUE(write_file(remote, "ckpt/tcp.bin"));
  }
  const uint64_t writes1 = server().metrics_frame().write_back.writes;
  EXPECT_GT(writes1, writes0);
  EXPECT_EQ(pfs_copy("ckpt/tcp.bin"), large_);

  // Dialled before the fork: at the limit no socket could be opened.
  auto lo = options();
  lo.readahead_chunks = 0;
  HvacClient limited(lo);
  ASSERT_TRUE(limited.prefetch(pfs_root_ + "/large.bin").ok());
  const int code = at_fd_limit(
      [&] { return write_file(limited, "ckpt/limit.bin") ? 0 : 1; });
  EXPECT_EQ(code, 0);
  EXPECT_GT(server().metrics_frame().write_back.writes, writes1);
  EXPECT_EQ(pfs_copy("ckpt/limit.bin"), large_);
}

// A kWriteOpen reply whose fd is not a write-only regular file fails
// the open with kProtocol, with no PFS fallback, and the fd closes.
TEST(PassedFd, HostileWriteOpenRepliesFailAndLeakNoFd) {
  rpc::HealthRegistry::global().reset();
  const std::string root = temp_dir("hostile_write");
  const std::string path = root + "/victim.bin";
  ASSERT_TRUE(storage::write_file(path, "x", 1).ok());
  struct Case {
    const char* name;
    const char* file;
    int flags;
  };
  for (const Case& c : {Case{"not_regular", "/dev/null", O_WRONLY},
                        Case{"read_only", path.c_str(), O_RDONLY},
                        Case{"read_write", path.c_str(), O_RDWR}}) {
    SCOPED_TRACE(c.name);
    const size_t fds_before = fds_on(c.file);
    rpc::RpcServer hostile(rpc::RpcServerOptions{});
    hostile.register_payload_handler(
        proto::kWriteOpen, [&](const rpc::Bytes&) -> Result<rpc::Payload> {
          rpc::WireWriter w;
          w.put_u64(1);
          w.put_u8(proto::kWriteBack);
          rpc::Payload p(std::move(w).take());
          p.set_fd(rpc::Fd(::open(c.file, c.flags | O_CLOEXEC)));
          return p;
        });
    ASSERT_TRUE(hostile.start().ok());
    HvacClientOptions co;
    co.dataset_dir = root;
    co.server_endpoints = {hostile.endpoint().address};
    co.rpc.max_retries = 0;
    {
      HvacClient client(co);
      auto vfd = client.open_write(root + "/ckpt.bin", true);
      ASSERT_FALSE(vfd.ok());
      EXPECT_EQ(vfd.error().code, ErrorCode::kProtocol);
      EXPECT_EQ(client.stats().fallback_write_opens, 0u);
    }
    hostile.stop();
    EXPECT_EQ(fds_on(c.file), fds_before);
  }
}

// A kWriteOpen reply that carries two fds, even write-only ones on a
// regular file, is malformed: the open fails with kProtocol, with no
// PFS fallback, and neither fd stays open. A raw unix-socket server
// sends it, since an RpcServer attaches one fd at most.
TEST(PassedFd, WriteOpenReplyWithTwoFdsFailsAndLeaksNoFd) {
  rpc::HealthRegistry::global().reset();
  const std::string root = temp_dir("two_fds");
  const std::string target = root + "/named.bin";
  ASSERT_TRUE(storage::write_file(target, "x", 1).ok());
  const std::string sock = ::testing::TempDir() + "hvac_twofd_" +
                           std::to_string(::getpid()) + ".sock";
  auto listener = rpc::listen_on(rpc::Endpoint{"unix:" + sock}, nullptr);
  ASSERT_TRUE(listener.ok()) << listener.error().to_string();
  const int attach = ::open(target.c_str(), O_WRONLY | O_CLOEXEC);
  ASSERT_GE(attach, 0);
  std::thread hostile([&] {
    const int conn =
        ::accept4(listener->get(), nullptr, nullptr, SOCK_CLOEXEC);
    if (conn < 0) return;
    uint8_t hdr[rpc::kMaxHeaderSize];
    auto req = rpc::recv_all(conn, hdr, rpc::kHeaderSize).ok()
                   ? rpc::decode_header(hdr, rpc::kHeaderSize)
                   : Result<rpc::FrameHeader>(Error(ErrorCode::kIoError, ""));
    std::vector<uint8_t> body(req.ok() ? req->payload_len : 0);
    if (req.ok() && (!req->has_trace ||
                     rpc::recv_all(conn, hdr, rpc::kTraceContextSize).ok()) &&
        rpc::recv_all(conn, body.data(), body.size()).ok()) {
      rpc::WireWriter w;
      w.put_u64(1);
      w.put_u8(proto::kWriteBack);
      rpc::FrameHeader h;
      h.payload_len = static_cast<uint32_t>(w.bytes().size());
      h.request_id = req->request_id;
      h.opcode = req->opcode;
      h.kind = rpc::FrameKind::kResponse;
      h.status = ErrorCode::kOk;
      uint8_t out[rpc::kMaxHeaderSize];
      const size_t len = rpc::encode_header(h, out);
      std::vector<uint8_t> frame(out, out + len);
      frame.insert(frame.end(), w.bytes().begin(), w.bytes().end());
      iovec iov{frame.data(), frame.size()};
      msghdr msg{};
      msg.msg_iov = &iov;
      msg.msg_iovlen = 1;
      const int fds[2] = {attach, attach};
      alignas(cmsghdr) char control[CMSG_SPACE(sizeof(fds))];
      msg.msg_control = control;
      msg.msg_controllen = sizeof(control);
      cmsghdr* cmsg = CMSG_FIRSTHDR(&msg);
      cmsg->cmsg_level = SOL_SOCKET;
      cmsg->cmsg_type = SCM_RIGHTS;
      cmsg->cmsg_len = CMSG_LEN(sizeof(fds));
      std::memcpy(CMSG_DATA(cmsg), fds, sizeof(fds));
      (void)::sendmsg(conn, &msg, MSG_NOSIGNAL);
      uint8_t drain = 0;
      (void)::recv(conn, &drain, 1, 0);  // until the client hangs up
    }
    ::close(conn);
  });
  {
    HvacClientOptions co;
    co.dataset_dir = root;
    co.server_endpoints = {"unix:" + sock};
    co.rpc.max_retries = 0;
    HvacClient client(co);
    auto vfd = client.open_write(root + "/ckpt.bin", true);
    ASSERT_FALSE(vfd.ok());
    EXPECT_EQ(vfd.error().code, ErrorCode::kProtocol);
    EXPECT_EQ(client.stats().fallback_write_opens, 0u);
  }
  hostile.join();
  ::close(attach);
  EXPECT_EQ(fds_on(target), 0u);
  ::unlink(sock.c_str());
}

// A packed sample shares its container's slot with its neighbours: a
// kOpen for it, even one that opts in, is answered without an fd.
TEST(PassedFd, PackedSamplesGetNoFd) {
  rpc::HealthRegistry::global().reset();
  const std::string root = temp_dir("packed");
  const auto sample = workload::expected_contents("big.bin", 200'000);
  ASSERT_TRUE(
      storage::write_file(root + "/big.bin", sample.data(), sample.size())
          .ok());
  ASSERT_TRUE(storage::pack_tree(root).ok());
  server::NodeRuntimeOptions o;
  o.pfs_root = root;
  o.cache_root = temp_dir("packed_cache");
  server::NodeRuntime node(o);
  ASSERT_TRUE(node.start().ok());

  rpc::RpcClient rc(rpc::Endpoint{node.endpoints()[0]});
  for (int pass = 0; pass < 2; ++pass) {  // a miss, then a hit
    rpc::WireWriter w;
    w.put_string("big.bin");
    w.put_u8(1);
    w.put_u8(1);
    auto resp = rc.call_payload(proto::kOpen, w.bytes(), /*take_fd=*/true);
    ASSERT_TRUE(resp.ok()) << resp.error().to_string();
    EXPECT_EQ(resp->fd(), -1);
    rpc::WireReader r(resp->data(), resp->size());
    ASSERT_TRUE(r.get_u64().ok());
    EXPECT_EQ(r.get_u64().value(), sample.size());
    ASSERT_TRUE(r.get_u8().ok());
    ASSERT_TRUE(r.get_blob_view().ok());
    EXPECT_TRUE(r.exhausted());  // no base: no fd promised
  }

  HvacClientOptions co;
  co.dataset_dir = root;
  co.server_endpoints = node.endpoints();
  HvacClient client(co);
  auto vfd = client.open(root + "/big.bin");
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  std::vector<uint8_t> buf(sample.size());
  ASSERT_EQ(client.pread(*vfd, buf.data(), buf.size(), 0).value(),
            sample.size());
  EXPECT_EQ(buf, sample);
  ASSERT_TRUE(client.close(*vfd).ok());
  EXPECT_EQ(client.stats().passed_fd_opens, 0u);
}

// A kOpen reply that names a slab the client does not hold and
// carries no fd gets one more kOpen without takes_fd, as at the fd
// limit. A slab named in the answer to that is malformed: the open
// fails over like a dead server, here to the PFS, and the bytes stay
// exact.
TEST(PassedFd, PromisedFdMissingFailsOverToPfs) {
  rpc::HealthRegistry::global().reset();
  const std::string root = temp_dir("promise");
  const auto data = workload::expected_contents("p.bin", 100'000);
  ASSERT_TRUE(
      storage::write_file(root + "/p.bin", data.data(), data.size()).ok());
  rpc::RpcServer hostile(rpc::RpcServerOptions{});
  std::atomic<int> opens{0};
  hostile.register_handler(
      proto::kOpen, [&](const rpc::Bytes&) -> Result<rpc::Bytes> {
        ++opens;
        rpc::WireWriter w;
        w.put_u64(0);
        w.put_u64(data.size());
        w.put_u8(proto::kFromCache);
        w.put_u32(0);
        w.put_u64(0);      // base
        w.put_u64(12345);  // a slab inode, but no fd on the frame
        return std::move(w).take();
      });
  ASSERT_TRUE(hostile.start().ok());

  HvacClientOptions co;
  co.dataset_dir = root;
  co.server_endpoints = {hostile.endpoint().address};
  co.rpc.max_retries = 0;
  HvacClient client(co);
  auto vfd = client.open(root + "/p.bin");
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  EXPECT_EQ(opens, 2);
  EXPECT_EQ(client.stats().fallback_opens, 1u);
  EXPECT_EQ(client.stats().passed_fd_opens, 0u);
  std::vector<uint8_t> buf(data.size());
  ASSERT_EQ(client.pread(*vfd, buf.data(), buf.size(), 0).value(),
            data.size());
  EXPECT_EQ(buf, data);
  ASSERT_TRUE(client.close(*vfd).ok());
  hostile.stop();
}

// A slab reference that does not check out fails the open over with
// kProtocol, to the PFS here, and leaves no fd on the passed file
// behind: an fd whose inode is not the one named, or a slot that ends
// past the file.
TEST(PassedFd, HostileSlabRepliesFailOverAndLeakNoFd) {
  rpc::HealthRegistry::global().reset();
  const std::string root = temp_dir("hostile_slab");
  const auto data = workload::expected_contents("h.bin", 50'000);
  const std::string path = root + "/h.bin";
  ASSERT_TRUE(storage::write_file(path, data.data(), data.size()).ok());
  struct stat st{};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  const uint64_t ino = st.st_ino;
  struct Case {
    const char* name;
    uint64_t ino;
    uint64_t base;
  };
  for (const Case& c : {Case{"other_inode", ino + 1, 0},
                        Case{"slot_past_end", ino, 10}}) {
    SCOPED_TRACE(c.name);
    rpc::RpcServer hostile(rpc::RpcServerOptions{});
    hostile.register_payload_handler(
        proto::kOpen, [&](const rpc::Bytes&) -> Result<rpc::Payload> {
          rpc::WireWriter w;
          w.put_u64(0);
          w.put_u64(data.size());
          w.put_u8(proto::kFromCache);
          w.put_u32(0);
          w.put_u64(c.base);
          w.put_u64(c.ino);
          rpc::Payload p(std::move(w).take());
          p.set_fd(rpc::Fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC)));
          return p;
        });
    ASSERT_TRUE(hostile.start().ok());
    HvacClientOptions co;
    co.dataset_dir = root;
    co.server_endpoints = {hostile.endpoint().address};
    co.rpc.max_retries = 0;
    {
      HvacClient client(co);
      auto vfd = client.open(path);
      ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
      EXPECT_EQ(client.stats().fallback_opens, 1u);
      EXPECT_EQ(client.stats().passed_fd_opens, 0u);
      std::vector<uint8_t> buf(data.size());
      ASSERT_EQ(client.pread(*vfd, buf.data(), buf.size(), 0).value(),
                data.size());
      EXPECT_EQ(buf, data);
      ASSERT_TRUE(client.close(*vfd).ok());
    }
    hostile.stop();
    EXPECT_EQ(fds_on(path), 0u);
  }
}

// Peers of another uid never get an fd, neither a slab's nor a
// write-back file's, even on a unix: endpoint whose socket file they
// may connect to. The peer runs as uid 65534 in a forked child that
// speaks raw syscalls; the parent (root) is the control and does get
// one.
TEST(PassedFd, ForeignUidPeerOnUnixEndpointGetsNoFd) {
  if (::geteuid() != 0) GTEST_SKIP() << "needs root to run a peer uid";
  rpc::HealthRegistry::global().reset();
  const std::string root = temp_dir("uid_pfs");
  const auto data = workload::expected_contents("u.bin", 200'000);
  ASSERT_TRUE(
      storage::write_file(root + "/u.bin", data.data(), data.size()).ok());
  storage::PfsBackend pfs(root);
  server::HvacServerOptions so;
  so.bind_address = "unix:" + ::testing::TempDir() + "hvac_passfd_" +
                    std::to_string(::getpid()) + ".sock";
  so.cache_dir = temp_dir("uid_cache");
  server::HvacServer srv(&pfs, so);
  ASSERT_TRUE(srv.start().ok());
  const std::string sock = srv.address().substr(5);
  ASSERT_EQ(::chmod(sock.c_str(), 0777), 0);

  // A kOpen and a write-back kWriteOpen, each opting in to an fd.
  for (const uint16_t op : {uint16_t(proto::kOpen),
                            uint16_t(proto::kWriteOpen)}) {
    SCOPED_TRACE(op);
    rpc::WireWriter body;
    body.put_string(op == proto::kOpen ? "u.bin" : "ckpt/u.bin");
    body.put_u8(1);  // stateless / trunc
    body.put_u8(1);  // takes_fd
    rpc::FrameHeader h;
    h.payload_len = static_cast<uint32_t>(body.bytes().size());
    h.request_id = 1;
    h.opcode = op;
    uint8_t hdr[rpc::kMaxHeaderSize];
    const size_t hdr_len = rpc::encode_header(h, hdr);
    std::vector<uint8_t> frame(hdr, hdr + hdr_len);
    frame.insert(frame.end(), body.bytes().begin(), body.bytes().end());

    // The control: this process's uid gets an fd (and warms the cache,
    // so the child's open is a reactor-side hit).
    rpc::RpcClient rc(rpc::Endpoint{srv.address()});
    auto own = rc.call_payload(op, body.bytes(), /*take_fd=*/true);
    ASSERT_TRUE(own.ok()) << own.error().to_string();
    EXPECT_GE(own->fd(), 0);

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    ASSERT_LT(sock.size(), sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, sock.c_str(), sock.size());
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      // Raw syscalls only between fork and _exit. Exit codes: 0 answered
      // without an fd, 1 answered with one, 2+ setup or transport error.
      if (::setgid(65534) != 0 || ::setuid(65534) != 0) ::_exit(2);
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                              sizeof(addr)) != 0) {
        ::_exit(3);
      }
      if (::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(frame.size())) {
        ::_exit(4);
      }
      uint8_t reply[rpc::kHeaderSize];
      alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))];
      iovec iov{reply, sizeof(reply)};
      msghdr msg{};
      msg.msg_iov = &iov;
      msg.msg_iovlen = 1;
      msg.msg_control = control;
      msg.msg_controllen = sizeof(control);
      if (::recvmsg(fd, &msg, 0) <= 0) ::_exit(5);
      ::_exit(CMSG_FIRSTHDR(&msg) != nullptr ? 1 : 0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
  srv.stop();
}

}  // namespace
}  // namespace hvac
