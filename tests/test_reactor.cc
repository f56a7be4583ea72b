// The one-reactor server core and its handler pool: the pool's
// non-blocking submit and draining shutdown, request and connection
// accounting, shed accounting under saturation, graceful drain, and
// pooled answers staying matched to their requests with the fault
// harness slowing handlers. Suite names carry
// Backpressure/Drain/Fault/Chaos so the chaos CI leg
// (scripts/check.sh chaos) picks them up.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "rpc/async_client.h"
#include "rpc/health.h"
#include "rpc/rpc_client.h"
#include "rpc/rpc_server.h"

namespace hvac {
namespace {

using rpc::AsyncRpcClient;
using rpc::Bytes;
using rpc::RpcClient;
using rpc::RpcServer;
using rpc::RpcServerOptions;

std::string unix_endpoint(const std::string& tag) {
  return "unix:" + ::testing::TempDir() + "hvac_reactor_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

// ---- handler pool (the dispatch tier on its own) ---------------------------

TEST(ReactorChaos, ThreadPoolShutdownRunsEveryQueuedTask) {
  ThreadPool pool(1);
  // Park the only worker so every task below is still queued when
  // shutdown starts.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<bool> started{false};
  ASSERT_TRUE(pool.submit([&started, gate] {
    started.store(true);
    gate.wait();
  }).ok());
  while (!started.load()) std::this_thread::yield();

  std::atomic<int> ran{0};
  constexpr int kTasks = 400;
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(pool.submit([&] { ran.fetch_add(1); }).ok());
  }
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release.set_value();
  });
  pool.shutdown();  // drains: every accepted task runs before exit
  releaser.join();
  EXPECT_EQ(ran.load(), kTasks);
  const Status late = pool.submit([] {});
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.error().code, ErrorCode::kCancelled);
}

TEST(ReactorChaos, ThreadPoolFullQueueGivesCapacityError) {
  ThreadPool pool(1, /*queue_capacity=*/4);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<bool> started{false};
  ASSERT_TRUE(pool.submit([&started, gate] {
    started.store(true);
    gate.wait();
  }).ok());
  while (!started.load()) std::this_thread::yield();
  // The worker is provably blocked and the queue empty: it takes
  // exactly queue_capacity more, then rejects with kCapacity instead
  // of blocking the submitting reactor.
  int accepted = 0;
  Status last = Status::Ok();
  for (int i = 0; i < 64; ++i) {
    Status s = pool.submit([] {});
    if (s.ok()) {
      ++accepted;
    } else {
      last = std::move(s);
      break;
    }
  }
  EXPECT_EQ(accepted, 4);
  ASSERT_FALSE(last.ok());
  EXPECT_EQ(last.error().code, ErrorCode::kCapacity);
  release.set_value();
  pool.shutdown();
}

// ---- connection and request accounting ------------------------------------

TEST(ReactorChaos, TcpRequestsConservedAcrossReactors) {
  // One reactor owns every connection: its row counts each connection
  // and each request exactly once — nothing lost, nothing doubled.
  RpcServerOptions so;
  so.bind_address = "127.0.0.1:0";
  so.handler_threads = 4;
  RpcServer server(so);
  server.register_handler(1, [](const Bytes& req) {
    return Result<Bytes>(req);
  });
  ASSERT_TRUE(server.start().ok());

  constexpr int kClients = 16;
  constexpr int kCallsEach = 8;
  std::vector<std::unique_ptr<RpcClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<RpcClient>(server.endpoint()));
  }
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kCallsEach; ++i) {
      const Bytes req{uint8_t(c), uint8_t(i)};
      const auto resp = clients[c]->call(1, req);
      ASSERT_TRUE(resp.ok()) << resp.error().to_string();
      EXPECT_EQ(*resp, req);
    }
  }

  const RpcServer::ReactorStats stats = server.reactor_stats();
  EXPECT_EQ(stats.conns, uint64_t(kClients));
  EXPECT_EQ(stats.requests, uint64_t(kClients) * kCallsEach);
  EXPECT_EQ(server.requests_served(), uint64_t(kClients) * kCallsEach);
  server.stop();
}

// ---- saturation / shed accounting -----------------------------------------

TEST(ReactorBackpressure, ShedAccountingSumsAcrossReactors) {
  RpcServerOptions so;
  so.bind_address = unix_endpoint("shed");
  so.handler_threads = 2;
  so.max_inflight_per_conn = 2;
  RpcServer server(so);
  server.register_handler(1, [](const Bytes& req) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return Result<Bytes>(req);
  });
  ASSERT_TRUE(server.start().ok());

  rpc::HealthRegistry::global().reset();
  // Two pipelined clients, each firing far past its per-connection
  // in-flight cap: the reactor sheds on both connections, and its row
  // sums them.
  AsyncRpcClient a(server.endpoint());
  AsyncRpcClient b(server.endpoint());
  std::vector<std::future<Result<Bytes>>> futures;
  for (uint8_t i = 0; i < 24; ++i) {
    futures.push_back(a.call_async(1, Bytes{i}));
    futures.push_back(b.call_async(1, Bytes{i}));
  }
  size_t ok = 0, shed = 0;
  for (auto& fut : futures) {
    const auto resp = fut.get();  // every call resolves, none hang
    if (resp.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(resp.error().code, ErrorCode::kUnavailable);
      ++shed;
    }
  }
  EXPECT_GT(ok, 0u);
  EXPECT_GT(shed, 0u);

  const RpcServer::ReactorStats stats = server.reactor_stats();
  EXPECT_EQ(stats.conns, 2u);
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(server.requests_shed(), shed);
  EXPECT_EQ(stats.requests, ok);
  server.stop();
  rpc::HealthRegistry::global().reset();
}

// ---- graceful drain -------------------------------------------------------

TEST(ReactorDrain, DrainFinishesInflightOnAllReactors) {
  RpcServerOptions so;
  so.bind_address = unix_endpoint("drain");
  so.handler_threads = 4;
  RpcServer server(so);
  server.register_handler(1, [](const Bytes& req) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return Result<Bytes>(req);
  });
  ASSERT_TRUE(server.start().ok());
  rpc::HealthRegistry::global().reset();

  // One in-flight request on each of four connections, then drain:
  // all four must be answered, not cut, and late arrivals on the
  // still-open connections get a shed response rather than a hang.
  std::vector<std::unique_ptr<AsyncRpcClient>> clients;
  std::vector<std::future<Result<Bytes>>> inflight;
  for (uint8_t i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<AsyncRpcClient>(server.endpoint()));
    inflight.push_back(clients.back()->call_async(1, Bytes{i}));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.drain(3000);
  EXPECT_TRUE(server.draining());
  EXPECT_EQ(server.inflight(), 0u);

  for (uint8_t i = 0; i < 4; ++i) {
    const auto resp = inflight[i].get();
    ASSERT_TRUE(resp.ok()) << resp.error().to_string();
    EXPECT_EQ((*resp)[0], i);
  }
  for (auto& client : clients) {
    const auto late = client->call(1, Bytes{9});
    ASSERT_FALSE(late.ok());
    EXPECT_EQ(late.error().code, ErrorCode::kUnavailable);
    EXPECT_NE(late.error().message.find("draining"), std::string::npos);
  }
  server.stop();
  rpc::HealthRegistry::global().reset();
}

// ---- pooled handlers under fault injection --------------------------------

TEST(ReactorFault, PooledAnswersStayMatchedUnderInjectedDelay) {
  RpcServerOptions so;
  so.bind_address = unix_endpoint("delay");
  so.handler_threads = 2;
  RpcServer server(so);
  // Pooled handler slowed by the fault harness (the mover-bound
  // shape): every request checks the kRead site, which is configured
  // to sleep.
  server.register_handler(1, [](const Bytes& req) -> Result<Bytes> {
    (void)fault::check(fault::Site::kRead);
    return req;
  });
  ASSERT_TRUE(server.start().ok());
  ASSERT_TRUE(fault::configure("read:delay_ms=2").ok());

  // One pipelined connection, two workers: responses race each other
  // onto the socket, and every one must still carry its own payload
  // (no cross-wiring of requests and responses).
  AsyncRpcClient a(server.endpoint());
  std::vector<std::future<Result<Bytes>>> futures;
  constexpr uint8_t kCalls = 48;
  for (uint8_t i = 0; i < kCalls; ++i) {
    futures.push_back(a.call_async(1, Bytes{i}));
  }
  for (uint8_t i = 0; i < kCalls; ++i) {
    const auto resp = futures[i].get();
    ASSERT_TRUE(resp.ok()) << resp.error().to_string();
    ASSERT_EQ(resp->size(), 1u);
    EXPECT_EQ((*resp)[0], i);
  }
  EXPECT_EQ(server.reactor_stats().requests, uint64_t(kCalls));
  EXPECT_GT(fault::total_injected(), 0u);
  server.stop();
  fault::reset();
}

// ---- the plain echo path --------------------------------------------------

TEST(ReactorChaos, SingleReactorIsStatusQuo) {
  RpcServerOptions so;
  so.bind_address = "127.0.0.1:0";
  so.handler_threads = 2;
  RpcServer server(so);
  server.register_handler(1, [](const Bytes& req) {
    return Result<Bytes>(req);
  });
  ASSERT_TRUE(server.start().ok());

  RpcClient client(server.endpoint());
  for (uint8_t i = 0; i < 8; ++i) {
    const auto resp = client.call(1, Bytes{i});
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ((*resp)[0], i);
  }
  const RpcServer::ReactorStats stats = server.reactor_stats();
  EXPECT_EQ(stats.conns, 1u);
  EXPECT_EQ(stats.requests, 8u);
  server.stop();
}

}  // namespace
}  // namespace hvac
