// Passed-fd bulk reads (DESIGN.md §20): a local kOpen of a slab-cached
// file over proto::kMaxInlineBytes hands the client a read-only fd on
// the cached copy, and every read of the vfd is one pread on it. These
// tests pin the bytes, the fd's mode, its life across eviction, purge
// and fork, and every case that must keep RPC reads instead.
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
#include <string>
#include <vector>

#include "client/hvac_client.h"
#include "common/hash.h"
#include "rpc/health.h"
#include "rpc/protocol.h"
#include "rpc/rpc_client.h"
#include "rpc/rpc_server.h"
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
constexpr size_t kSmallBytes = proto::kMaxInlineBytes;  // inlined, no fd

uint64_t op_count(const core::MetricsFrame& f, uint16_t op) {
  auto it = f.op_latency.find(op);
  return it == f.op_latency.end() ? 0 : it->second.count;
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
// slab's own O_RDWR fd), close-on-exec, and the body's base addresses
// the file inside the slab.
TEST_F(PassedFdRig, PassedFdIsReadOnlyAndAddressesTheSlot) {
  HvacClient warm(options());
  ASSERT_TRUE(warm.prefetch(pfs_root_ + "/large.bin").ok());

  rpc::RpcClient rc(rpc::Endpoint{node_->endpoints()[0]});
  rpc::WireWriter w;
  w.put_string("large.bin");
  w.put_u8(1);  // stateless
  w.put_u8(1);  // takes_fd
  auto resp = rc.call_payload(proto::kOpen, w.bytes(), /*take_fd=*/true);
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
  EXPECT_TRUE(r.exhausted());
  std::vector<uint8_t> bytes(kLargeBytes);
  ASSERT_EQ(::pread(fd, bytes.data(), bytes.size(), static_cast<off_t>(base)),
            static_cast<ssize_t>(kLargeBytes));
  EXPECT_EQ(bytes, large_);
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
// cache fd with it: its reads are the same pread, and correct.
TEST_F(PassedFdRig, ForkedChildReadsThroughInheritedEntry) {
  HvacClient client(options());
  auto vfd = client.open(pfs_root_ + "/large.bin");
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  ASSERT_EQ(client.stats().passed_fd_opens, 1u);
  const uint64_t want = fnv1a64(std::string_view(
      reinterpret_cast<const char*>(large_.data()), large_.size()));
  std::vector<uint8_t> buf(kLargeBytes);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const auto n = client.pread(*vfd, buf.data(), buf.size(), 0);
    const bool ok =
        n.ok() && *n == buf.size() &&
        fnv1a64(std::string_view(reinterpret_cast<const char*>(buf.data()),
                                 buf.size())) == want;
    ::_exit(ok ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  expect_range(client, *vfd, large_, 0, kLargeBytes);
  ASSERT_TRUE(client.close(*vfd).ok());
}

// A reader at RLIMIT_NOFILE has no slot for a passed fd: the kernel
// drops it (MSG_CTRUNC) and the reply's bytes still arrive. The open
// asks again without takes_fd on the same connection and reads by RPC:
// no failover, no breaker strike. The client runs in a forked child
// whose fd table is filled up to a lowered limit, so the server in
// this process still opens its slab.
TEST_F(PassedFdRig, ReaderAtFdLimitFallsBackToRpcReads) {
  auto o = options();
  o.readahead_chunks = 0;  // no async channel, which would need an fd
  HvacClient client(o);
  auto small = client.open(pfs_root_ + "/small.bin");  // dials the alias
  ASSERT_TRUE(small.ok()) << small.error().to_string();
  ASSERT_TRUE(client.close(*small).ok());
  ASSERT_TRUE(client.prefetch(pfs_root_ + "/large.bin").ok());
  int highest = 0;
  for (const auto& e : fs::directory_iterator("/proc/self/fd")) {
    highest = std::max(highest, std::stoi(e.path().filename().string()));
  }
  const uint64_t passes = server().metrics_frame().zerocopy.fd_passes;
  const uint64_t want = fnv1a64(std::string_view(
      reinterpret_cast<const char*>(large_.data()), large_.size()));
  std::vector<uint8_t> buf(kLargeBytes);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Exit codes: 0 read by RPC with exact bytes, 1 setup, 2 open
    // failed, 3 the open took an fd or failed over, 4 wrong bytes.
    rlimit limit{};
    if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) ::_exit(1);
    limit.rlim_cur = static_cast<rlim_t>(highest) + 1;
    if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) ::_exit(1);
    while (::dup(0) >= 0) {
    }
    if (errno != EMFILE) ::_exit(1);
    auto vfd = client.open(pfs_root_ + "/large.bin");
    if (!vfd.ok()) ::_exit(2);
    const client::ClientStats s = client.stats();
    if (s.passed_fd_opens != 0 || s.fallback_opens != 0 ||
        s.failovers != 0) {
      ::_exit(3);
    }
    const auto n = client.pread(*vfd, buf.data(), buf.size(), 0);
    const bool ok =
        n.ok() && *n == buf.size() &&
        fnv1a64(std::string_view(reinterpret_cast<const char*>(buf.data()),
                                 buf.size())) == want;
    ::_exit(ok ? 0 : 4);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  // The server did pass one, which the child's kernel dropped.
  EXPECT_EQ(server().metrics_frame().zerocopy.fd_passes, passes + 1);
}

// Small files stay inline and TCP clients keep RPC reads: neither gets
// an fd, and both still read exact bytes.
TEST_F(PassedFdRig, SmallFilesAndTcpClientsGetNoFd) {
  const uint64_t passes = server().metrics_frame().zerocopy.fd_passes;
  HvacClient local(options());
  auto small = local.open(pfs_root_ + "/small.bin");
  ASSERT_TRUE(small.ok()) << small.error().to_string();
  EXPECT_EQ(read_all(local, *small, 10'000), small_);
  ASSERT_TRUE(local.close(*small).ok());
  EXPECT_EQ(local.stats().passed_fd_opens, 0u);

  auto o = options();
  o.server_endpoints = tcp_endpoints();
  HvacClient tcp(o);
  for (int pass = 0; pass < 2; ++pass) {  // a miss, then a hit
    auto vfd = tcp.open(pfs_root_ + "/large.bin");
    ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
    EXPECT_EQ(read_all(tcp, *vfd, 1 << 20), large_);
    ASSERT_TRUE(tcp.close(*vfd).ok());
  }
  EXPECT_EQ(tcp.stats().passed_fd_opens, 0u);
  EXPECT_GT(op_count(server().metrics_frame(), proto::kReadScatter), 0u);
  EXPECT_EQ(server().metrics_frame().zerocopy.fd_passes, passes);
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

// A kOpen reply that promises an fd (a trailing base) but carries none
// gets one more kOpen without takes_fd, as at the fd limit. A base on
// the answer to that is malformed: the open fails over like a dead
// server, here to the PFS, and the bytes stay exact.
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
        w.put_u64(0);  // base, but no fd on the frame
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

// Peers of another uid never get an fd, even on a unix: endpoint whose
// socket file they may connect to. The peer runs as uid 65534 in a
// forked child that speaks raw syscalls; the parent (root) is the
// control and does get one.
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

  rpc::WireWriter body;
  body.put_string("u.bin");
  body.put_u8(1);
  body.put_u8(1);
  rpc::FrameHeader h;
  h.payload_len = static_cast<uint32_t>(body.bytes().size());
  h.request_id = 1;
  h.opcode = proto::kOpen;
  uint8_t hdr[rpc::kMaxHeaderSize];
  const size_t hdr_len = rpc::encode_header(h, hdr);
  std::vector<uint8_t> frame(hdr, hdr + hdr_len);
  frame.insert(frame.end(), body.bytes().begin(), body.bytes().end());

  // The control: this process's uid gets an fd (and warms the cache,
  // so the child's open is a reactor-side hit).
  rpc::RpcClient rc(rpc::Endpoint{srv.address()});
  auto own = rc.call_payload(proto::kOpen, body.bytes(), /*take_fd=*/true);
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
  srv.stop();
}

}  // namespace
}  // namespace hvac
