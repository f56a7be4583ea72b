// Tests for the asynchronous RPC channel (request-id multiplexing
// over one connection) and the pipelined prefetch built on it.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "client/hvac_client.h"
#include "common/fault_injection.h"
#include "rpc/async_client.h"
#include "rpc/rpc_server.h"
#include "server/node_runtime.h"
#include "workload/file_tree.h"

namespace hvac::rpc {
namespace {

class AsyncRpcFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    server_.register_handler(1, [](const Bytes& req) -> Result<Bytes> {
      Bytes out = req;
      return out;
    });
    // Reverses the payload after a delay proportional to the first
    // byte — completions arrive out of issue order.
    server_.register_handler(2, [](const Bytes& req) -> Result<Bytes> {
      const int delay_ms = req.empty() ? 0 : req[0];
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      Bytes out(req.rbegin(), req.rend());
      return out;
    });
    server_.register_handler(3, [](const Bytes&) -> Result<Bytes> {
      return Error(ErrorCode::kPermission, "denied");
    });
    ASSERT_TRUE(server_.start().ok());
  }

  RpcServer server_{RpcServerOptions{"127.0.0.1:0", 4}};
};

TEST_F(AsyncRpcFixture, SingleCall) {
  AsyncRpcClient client(server_.endpoint());
  Bytes msg{1, 2, 3};
  const auto resp = client.call(1, msg);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(*resp, msg);
}

uint64_t accepted_conns(const RpcServer& server) {
  uint64_t total = 0;
  for (const auto& r : server.reactor_stats()) total += r.conns;
  return total;
}

// The async channel draws the rpc_send and rpc_recv fault sites where
// RpcClient does, so chaos specs reach the prefetch and read-ahead
// channel: each armed fault fails exactly one call, and the next call
// redials and succeeds.
TEST_F(AsyncRpcFixture, ArmedTransportFaultFailsOneCallThenRedials) {
  AsyncRpcClient client(server_.endpoint());
  ASSERT_TRUE(client.call(1, Bytes{1}).ok());
  for (const auto& [spec, site] :
       {std::pair{"rpc_send:error=unavailable:count=1",
                  fault::Site::kRpcSend},
        std::pair{"rpc_recv:error=unavailable:count=1",
                  fault::Site::kRpcRecv}}) {
    const uint64_t conns_before = accepted_conns(server_);
    ASSERT_TRUE(fault::configure(spec).ok());
    const auto failed = client.call(1, Bytes{2});
    const auto next = client.call(1, Bytes{3});
    const fault::SiteStats stats = fault::stats(site);
    fault::reset();
    ASSERT_FALSE(failed.ok()) << spec;
    EXPECT_EQ(failed.error().code, ErrorCode::kUnavailable) << spec;
    ASSERT_TRUE(next.ok()) << spec << ": " << next.error().to_string();
    EXPECT_EQ(*next, Bytes{3});
    EXPECT_EQ(stats.errors, 1u) << spec;
    EXPECT_EQ(accepted_conns(server_), conns_before + 1) << spec;
  }
}

TEST_F(AsyncRpcFixture, ManyOutstandingOnOneConnection) {
  AsyncRpcClient client(server_.endpoint());
  std::vector<std::future<Result<Bytes>>> futures;
  for (uint8_t i = 0; i < 32; ++i) {
    futures.push_back(client.call_async(1, Bytes{i, uint8_t(i + 1)}));
  }
  for (uint8_t i = 0; i < 32; ++i) {
    const auto resp = futures[i].get();
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ((*resp)[0], i);
  }
  EXPECT_EQ(client.pending(), 0u);
}

TEST_F(AsyncRpcFixture, OutOfOrderCompletionsMatchRequests) {
  AsyncRpcClient client(server_.endpoint());
  // First request sleeps 40 ms, second 1 ms: the second response
  // arrives first and must resolve the right future.
  auto slow = client.call_async(2, Bytes{40, 7});
  auto fast = client.call_async(2, Bytes{1, 9});
  const auto fast_resp = fast.get();
  const auto slow_resp = slow.get();
  ASSERT_TRUE(fast_resp.ok());
  ASSERT_TRUE(slow_resp.ok());
  EXPECT_EQ((*fast_resp)[0], 9);   // reversed {1,9}
  EXPECT_EQ((*slow_resp)[0], 7);   // reversed {40,7}
}

TEST_F(AsyncRpcFixture, HandlerErrorPerCall) {
  AsyncRpcClient client(server_.endpoint());
  auto good = client.call_async(1, Bytes{5});
  auto bad = client.call_async(3, Bytes{});
  EXPECT_TRUE(good.get().ok());
  const auto resp = bad.get();
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.error().code, ErrorCode::kPermission);
}

TEST_F(AsyncRpcFixture, ShutdownFailsPending) {
  auto client = std::make_unique<AsyncRpcClient>(server_.endpoint());
  auto slow = client->call_async(2, Bytes{80, 1});
  client->shutdown();
  const auto resp = slow.get();
  ASSERT_FALSE(resp.ok());
  // Either the cancel or the torn-down connection, depending on
  // timing.
  EXPECT_TRUE(resp.error().code == ErrorCode::kCancelled ||
              resp.error().code == ErrorCode::kUnavailable);
  // Calls after shutdown fail immediately.
  EXPECT_FALSE(client->call(1, Bytes{}).ok());
}

TEST_F(AsyncRpcFixture, ServerLossFailsSubsequentCalls) {
  AsyncRpcClient client(server_.endpoint());
  ASSERT_TRUE(client.call(1, Bytes{1}).ok());
  auto slow = client.call_async(2, Bytes{60, 1});
  server_.stop();
  // stop() drains in-flight handlers, so the slow call may still
  // succeed; either way it must resolve, and new calls must fail.
  (void)slow.get();
  const auto resp = client.call(1, Bytes{2});
  EXPECT_FALSE(resp.ok());
}

TEST_F(AsyncRpcFixture, BrokenChannelReconnectsWhenServerReturns) {
  AsyncRpcClient client(server_.endpoint());
  ASSERT_TRUE(client.call(1, Bytes{1}).ok());

  // Kill the server: the channel breaks and calls fail.
  const std::string address = server_.endpoint().address;
  server_.stop();
  EXPECT_FALSE(client.call(1, Bytes{2}).ok());

  // A new server on the same port (listen_on sets SO_REUSEADDR): the
  // next call must dial a fresh connection instead of staying broken
  // forever.
  RpcServer revived{RpcServerOptions{address, 2}};
  revived.register_handler(1, [](const Bytes& req) -> Result<Bytes> {
    Bytes out = req;
    return out;
  });
  ASSERT_TRUE(revived.start().ok());
  Result<Bytes> resp = client.call(1, Bytes{3});
  // The first call after revival may race the broken-fd teardown;
  // one retry must land on the fresh connection.
  if (!resp.ok()) resp = client.call(1, Bytes{3});
  ASSERT_TRUE(resp.ok()) << resp.error().to_string();
  EXPECT_EQ((*resp)[0], 3);
  revived.stop();
}

TEST_F(AsyncRpcFixture, ConcurrentIssuersShareChannel) {
  AsyncRpcClient client(server_.endpoint());
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&client, &ok, t] {
      for (uint8_t i = 0; i < 25; ++i) {
        Bytes msg{uint8_t(t), i};
        const auto resp = client.call(1, msg);
        if (resp.ok() && *resp == msg) ++ok;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), 100);
}

}  // namespace
}  // namespace hvac::rpc

namespace hvac {
namespace {

TEST(PrefetchMany, WarmsWholeDatasetPipelined) {
  namespace fs = std::filesystem;
  const std::string pfs_root = ::testing::TempDir() + "hvac_pf_pfs_" + std::to_string(::getpid());
  const std::string cache_root = ::testing::TempDir() + "hvac_pf_cache_" + std::to_string(::getpid());
  fs::remove_all(pfs_root);
  fs::remove_all(cache_root);
  const auto spec = workload::synthetic_small(40, 2048, 0.3);
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
  client::HvacClient client(copts);

  std::vector<std::string> paths;
  for (const auto& rel : tree->relative_paths) {
    paths.push_back(pfs_root + "/" + rel);
  }
  const auto warmed = client.prefetch_many(paths);
  ASSERT_TRUE(warmed.ok());
  EXPECT_EQ(*warmed, paths.size());
  EXPECT_EQ(node.aggregated_metrics().misses, paths.size());

  // Every subsequent open is a hit.
  for (const auto& path : paths) {
    auto vfd = client.open(path);
    ASSERT_TRUE(vfd.ok());
    ASSERT_TRUE(client.close(*vfd).ok());
  }
  EXPECT_EQ(node.aggregated_metrics().hits, paths.size());
  node.stop();
}

}  // namespace
}  // namespace hvac
