// Server-side protocol hardening: every handler must reject
// malformed, truncated or out-of-range requests with a clean error —
// a misbehaving client must never wedge or crash a server that other
// ranks depend on.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "core/metrics_frame.h"
#include "rpc/rpc_client.h"
#include "rpc/wire.h"
#include "server/hvac_proto.h"
#include "server/node_runtime.h"
#include "workload/file_tree.h"

namespace hvac {
namespace {

namespace fs = std::filesystem;
using rpc::Bytes;
using rpc::WireReader;
using rpc::WireWriter;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "hvac_sedge_" + name +
                          "_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

class ServerEdge : public ::testing::Test {
 protected:
  void SetUp() override {
    pfs_root_ = temp_dir("pfs");
    const auto spec = workload::synthetic_small(4, 2048, 0.0);
    auto tree = workload::generate_tree(pfs_root_, spec);
    ASSERT_TRUE(tree.ok());
    tree_ = std::move(tree).value();

    server::NodeRuntimeOptions o;
    o.pfs_root = pfs_root_;
    o.cache_root = temp_dir("cache");
    node_ = std::make_unique<server::NodeRuntime>(o);
    ASSERT_TRUE(node_->start().ok());
    client_ = std::make_unique<rpc::RpcClient>(
        rpc::Endpoint{node_->endpoints()[0]});
  }

  // Opens tree file 0 through the raw protocol; returns the remote fd.
  uint64_t open_remote() {
    WireWriter w;
    w.put_string(tree_.relative_paths[0]);
    auto resp = client_->call(proto::kOpen, w.bytes());
    EXPECT_TRUE(resp.ok());
    WireReader r(*resp);
    return r.get_u64().value();
  }

  std::string pfs_root_;
  workload::GeneratedTree tree_;
  std::unique_ptr<server::NodeRuntime> node_;
  std::unique_ptr<rpc::RpcClient> client_;
};

TEST_F(ServerEdge, EmptyPayloadsRejectedCleanly) {
  for (uint16_t opcode : {proto::kOpen, proto::kRead, proto::kClose,
                          proto::kStat, proto::kPrefetchBatch,
                          proto::kReadSegment}) {
    const auto resp = client_->call(opcode, Bytes{});
    ASSERT_FALSE(resp.ok()) << "opcode " << opcode;
    EXPECT_EQ(resp.error().code, ErrorCode::kProtocol)
        << "opcode " << opcode;
  }
  // The retired single-path prefetch has no handler.
  const auto retired = client_->call(proto::kPrefetch, Bytes{});
  ASSERT_FALSE(retired.ok());
  EXPECT_EQ(retired.error().code, ErrorCode::kUnimplemented);
  // The server is still healthy afterwards.
  EXPECT_TRUE(client_->call(proto::kPing, Bytes{}).ok());
}

TEST_F(ServerEdge, GarbagePayloadsDontWedgeServer) {
  Bytes garbage(64, 0xee);
  for (uint16_t opcode = 1; opcode <= 8; ++opcode) {
    (void)client_->call(opcode, garbage);
  }
  EXPECT_TRUE(client_->call(proto::kPing, Bytes{}).ok());
  EXPECT_GT(open_remote(), 0u);
}

TEST_F(ServerEdge, ReadWithUnknownRemoteFd) {
  WireWriter w;
  w.put_u64(999999);
  w.put_u64(0);
  w.put_u32(16);
  const auto resp = client_->call(proto::kRead, w.bytes());
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.error().code, ErrorCode::kBadFd);
}

TEST_F(ServerEdge, ReadChunkAboveCapRejected) {
  const uint64_t remote_fd = open_remote();
  WireWriter w;
  w.put_u64(remote_fd);
  w.put_u64(0);
  w.put_u32(proto::kMaxReadChunk + 1);
  const auto resp = client_->call(proto::kRead, w.bytes());
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.error().code, ErrorCode::kInvalidArgument);
}

TEST_F(ServerEdge, CloseUnknownFdAndDoubleClose) {
  const uint64_t remote_fd = open_remote();
  WireWriter w;
  w.put_u64(remote_fd);
  EXPECT_TRUE(client_->call(proto::kClose, w.bytes()).ok());
  const auto again = client_->call(proto::kClose, w.bytes());
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code, ErrorCode::kBadFd);
}

TEST_F(ServerEdge, OpenMissingFilePropagatesNotFound) {
  WireWriter w;
  w.put_string("no/such/file.bin");
  const auto resp = client_->call(proto::kOpen, w.bytes());
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.error().code, ErrorCode::kNotFound);
}

TEST_F(ServerEdge, SegmentReadValidation) {
  // segment_bytes == 0 is invalid.
  {
    WireWriter w;
    w.put_string(tree_.relative_paths[0]);
    w.put_u64(0);
    w.put_u64(0);
    w.put_u64(0);
    w.put_u32(16);
    const auto resp = client_->call(proto::kReadSegment, w.bytes());
    ASSERT_FALSE(resp.ok());
    EXPECT_EQ(resp.error().code, ErrorCode::kInvalidArgument);
  }
  // Segment entirely past EOF is invalid.
  {
    WireWriter w;
    w.put_string(tree_.relative_paths[0]);
    w.put_u64(100);  // far past a 2 KB file at 1 KB segments
    w.put_u64(1024);
    w.put_u64(0);
    w.put_u32(16);
    const auto resp = client_->call(proto::kReadSegment, w.bytes());
    ASSERT_FALSE(resp.ok());
  }
  // Valid segment read works.
  {
    WireWriter w;
    w.put_string(tree_.relative_paths[0]);
    w.put_u64(1);
    w.put_u64(1024);
    w.put_u64(0);
    w.put_u32(1024);
    const auto resp = client_->call(proto::kReadSegment, w.bytes());
    ASSERT_TRUE(resp.ok()) << resp.error().to_string();
    WireReader r(*resp);
    const auto blob = r.get_blob();
    ASSERT_TRUE(blob.ok());
    const auto expected = workload::expected_contents(
        tree_.relative_paths[0], tree_.sizes[0]);
    ASSERT_EQ(blob->size(),
              std::min<uint64_t>(1024, tree_.sizes[0] - 1024));
    EXPECT_TRUE(std::equal(blob->begin(), blob->end(),
                           expected.begin() + 1024));
  }
}

TEST_F(ServerEdge, MetricsPayloadShape) {
  (void)open_remote();
  const auto resp = client_->call(proto::kMetrics, Bytes{});
  ASSERT_TRUE(resp.ok());
  // The v1 prefix (eight bare u64 counters) still leads the payload so
  // legacy decoders keep working, and the v2 section list follows,
  // announced by its magic.
  WireReader r(*resp);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(r.get_u64().ok()) << "field " << i;
  }
  const auto magic = r.get_u32();
  ASSERT_TRUE(magic.ok());
  EXPECT_EQ(*magic, core::kMetricsFrameMagic);
  const auto frame = core::MetricsFrame::decode(*resp);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->version, core::kFrameVersion);
  EXPECT_GE(frame->handle_cache.capacity, 1u);
  // The opens above were timed.
  EXPECT_EQ(frame->op_latency.count(proto::kOpen), 1u);
}

TEST_F(ServerEdge, ServerCountsOpenFds) {
  EXPECT_EQ(node_->instance(0).open_remote_fds(), 0u);
  const uint64_t fd1 = open_remote();
  const uint64_t fd2 = open_remote();
  EXPECT_NE(fd1, fd2);
  EXPECT_EQ(node_->instance(0).open_remote_fds(), 2u);
  WireWriter w;
  w.put_u64(fd1);
  ASSERT_TRUE(client_->call(proto::kClose, w.bytes()).ok());
  EXPECT_EQ(node_->instance(0).open_remote_fds(), 1u);
}

}  // namespace
}  // namespace hvac
