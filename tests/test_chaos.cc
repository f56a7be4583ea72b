// Fault-domain tests: the deterministic fault-injection harness, the
// per-endpoint circuit breaker, per-call deadlines, server-side
// backpressure/drain, and the headline chaos scenario (one of two
// servers killed mid-epoch must cost one detection penalty, not one
// timeout per read).
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "client/hvac_client.h"
#include "common/fault_injection.h"
#include "rpc/async_client.h"
#include "rpc/health.h"
#include "rpc/rpc_client.h"
#include "rpc/rpc_server.h"
#include "server/hvac_server.h"
#include "server/node_runtime.h"
#include "storage/posix_file.h"
#include "workload/file_tree.h"

namespace hvac {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "hvac_chaos_" + name +
                          "_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// `node`'s endpoints as localhost:PORT, which names no node-local
// alias: the client stays on TCP, so a warm read is an RPC the server
// answers with sendfile, not a pread on a held slab fd (DESIGN.md §20).
std::vector<std::string> tcp_endpoints(const server::NodeRuntime& node) {
  std::vector<std::string> out;
  for (const std::string& e : node.endpoints()) {
    out.push_back("localhost:" + e.substr(e.rfind(':') + 1));
  }
  return out;
}

int64_t now_us() { return rpc::steady_now_us(); }

// ---- fault-injection harness ----------------------------------------------

class FaultFixture : public ::testing::Test {
 protected:
  void TearDown() override { fault::reset(); }
};

TEST_F(FaultFixture, DisabledByDefaultAndZeroAfterReset) {
  fault::reset();
  EXPECT_FALSE(fault::enabled());
  EXPECT_TRUE(fault::check(fault::Site::kRead).ok());
  // A disabled harness must not even count checks — the hot path is
  // one relaxed load, nothing else.
  EXPECT_EQ(fault::stats(fault::Site::kRead).checks, 0u);
  EXPECT_EQ(fault::total_injected(), 0u);
}

TEST_F(FaultFixture, SpecParsing) {
  EXPECT_TRUE(fault::configure("rpc_recv:error:0.01").ok());
  EXPECT_TRUE(fault::configure("open:delay_ms=50:seed=7").ok());
  EXPECT_TRUE(
      fault::configure("read:error=timeout;pfs_read:error=io:0.5").ok());
  EXPECT_TRUE(fault::configure("stat:error:after=3:count=2").ok());
  EXPECT_TRUE(fault::configure("").ok());  // empty spec disables
  EXPECT_FALSE(fault::enabled());

  EXPECT_EQ(fault::configure("nosuchsite:error").error().code,
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(fault::configure("read:frobnicate").error().code,
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(fault::configure("read").error().code,
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(fault::configure("read:error=nosuchcode").error().code,
            ErrorCode::kInvalidArgument);
}

TEST_F(FaultFixture, ErrorRuleFiresWithConfiguredCode) {
  ASSERT_TRUE(fault::configure("rpc_recv:error=timeout").ok());
  const Status s = fault::check(fault::Site::kRpcRecv);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::kTimeout);
  // Other sites are untouched.
  EXPECT_TRUE(fault::check(fault::Site::kRead).ok());
  EXPECT_EQ(fault::stats(fault::Site::kRpcRecv).errors, 1u);
  EXPECT_EQ(fault::total_injected(), 1u);
}

TEST_F(FaultFixture, ProbabilisticFiringIsDeterministic) {
  const std::string spec = "read:error:0.3:seed=42";
  auto run = [&] {
    std::vector<bool> fired;
    EXPECT_TRUE(fault::configure(spec).ok());
    for (int i = 0; i < 200; ++i) {
      fired.push_back(!fault::check(fault::Site::kRead).ok());
    }
    return fired;
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  // ~30% of 200; enormously generous bounds to stay flake-free while
  // still proving the probability is applied at all.
  const size_t fires = std::count(first.begin(), first.end(), true);
  EXPECT_GT(fires, 20u);
  EXPECT_LT(fires, 120u);
  // Different seed, different schedule.
  ASSERT_TRUE(fault::configure("read:error:0.3:seed=43").ok());
  std::vector<bool> other;
  for (int i = 0; i < 200; ++i) {
    other.push_back(!fault::check(fault::Site::kRead).ok());
  }
  EXPECT_NE(first, other);
}

TEST_F(FaultFixture, AfterAndCountWindowTheRule) {
  ASSERT_TRUE(fault::configure("stat:error:after=2:count=3").ok());
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) {
    fired.push_back(!fault::check(fault::Site::kStat).ok());
  }
  const std::vector<bool> expected{false, false, true, true,
                                   true,  false, false, false};
  EXPECT_EQ(fired, expected);
}

TEST_F(FaultFixture, DelayRuleSleepsThenContinues) {
  ASSERT_TRUE(fault::configure("open:delay_ms=40").ok());
  const int64_t t0 = now_us();
  EXPECT_TRUE(fault::check(fault::Site::kOpen).ok());
  EXPECT_GE(now_us() - t0, 35'000);
  EXPECT_EQ(fault::stats(fault::Site::kOpen).delays, 1u);
}

// ---- circuit breaker ------------------------------------------------------

TEST(Breaker, TripsAfterNFailuresThenProbesAndRecovers) {
  rpc::BreakerOptions o;
  o.failures_to_open = 2;
  o.base_backoff_ms = 50;
  o.max_backoff_ms = 100;
  rpc::EndpointHealth h("test:1", o);
  using State = rpc::EndpointHealth::State;

  EXPECT_TRUE(h.allow_request());
  h.record_failure();
  EXPECT_EQ(h.state(), State::kClosed);  // one failure is not enough
  h.record_failure();
  EXPECT_EQ(h.state(), State::kOpen);
  EXPECT_FALSE(h.allow_request());  // shed while open

  // Backoff for the first open is 50ms +/- 25% jitter; 200ms clears it.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_TRUE(h.allow_request());  // the half-open probe
  EXPECT_EQ(h.state(), State::kHalfOpen);
  EXPECT_FALSE(h.allow_request());  // only one probe at a time

  // Failed probe: straight back to open.
  h.record_failure();
  EXPECT_EQ(h.state(), State::kOpen);
  EXPECT_EQ(h.snapshot().opens, 2u);

  // Second backoff is capped at 100ms +25%; wait it out, probe, heal.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_TRUE(h.allow_request());
  h.record_success();
  EXPECT_EQ(h.state(), State::kClosed);
  EXPECT_TRUE(h.allow_request());
}

TEST(Breaker, SuccessResetsTheFailureStreak) {
  rpc::BreakerOptions o;
  o.failures_to_open = 3;
  rpc::EndpointHealth h("test:2", o);
  for (int round = 0; round < 5; ++round) {
    h.record_failure();
    h.record_failure();
    h.record_success();  // streak broken before the threshold
  }
  EXPECT_EQ(h.state(), rpc::EndpointHealth::State::kClosed);
  EXPECT_EQ(h.snapshot().opens, 0u);
}

TEST(Breaker, DisabledWhenThresholdIsZero) {
  rpc::BreakerOptions o;
  o.failures_to_open = 0;
  rpc::EndpointHealth h("test:3", o);
  for (int i = 0; i < 50; ++i) h.record_failure();
  EXPECT_EQ(h.state(), rpc::EndpointHealth::State::kClosed);
  EXPECT_TRUE(h.allow_request());
}

TEST(Breaker, OpenCircuitFailsCallsInstantlyWithoutDialing) {
  ::setenv("HVAC_BREAKER_FAILURES", "1", 1);
  ::setenv("HVAC_BREAKER_BASE_MS", "60000", 1);
  ::setenv("HVAC_BREAKER_MAX_MS", "60000", 1);
  rpc::HealthRegistry::global().reset();
  auto& counters = rpc::ResilienceCounters::global();
  const uint64_t shed_before =
      counters.breaker_shed.load(std::memory_order_relaxed);

  // Port 1 refuses instantly on loopback; the first call records the
  // transport failure and trips the one-strike breaker.
  rpc::RpcClientOptions co;
  co.connect_timeout_ms = 500;
  rpc::RpcClient client(rpc::Endpoint{"127.0.0.1:1"}, co);
  EXPECT_FALSE(client.call(1, rpc::Bytes{}).ok());
  EXPECT_EQ(client.health().state(), rpc::EndpointHealth::State::kOpen);

  // While open, calls fail in microseconds — no connect, no timeout.
  const int64_t t0 = now_us();
  const auto resp = client.call(1, rpc::Bytes{});
  const int64_t elapsed_us = now_us() - t0;
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.error().code, ErrorCode::kUnavailable);
  EXPECT_NE(resp.error().message.find("circuit open"), std::string::npos);
  EXPECT_LT(elapsed_us, 50'000);
  EXPECT_GT(counters.breaker_shed.load(std::memory_order_relaxed),
            shed_before);

  ::unsetenv("HVAC_BREAKER_FAILURES");
  ::unsetenv("HVAC_BREAKER_BASE_MS");
  ::unsetenv("HVAC_BREAKER_MAX_MS");
  rpc::HealthRegistry::global().reset();
}

// ---- per-call deadline ----------------------------------------------------

// A server that drips one byte every 20 ms defeats SO_RCVTIMEO (each
// recv makes "progress") — only the whole-call deadline stops it.
TEST(CallDeadline, SlowDripServerIsCutByCallTimeout) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);
  const int port = ntohs(addr.sin_port);

  std::thread drip([listen_fd] {
    const int c = ::accept(listen_fd, nullptr, nullptr);
    if (c < 0) return;
    char req[256];
    (void)::recv(c, req, sizeof(req), 0);
    for (int i = 0; i < 150; ++i) {
      const char byte = 0;
      if (::send(c, &byte, 1, MSG_NOSIGNAL) <= 0) break;
      ::usleep(20'000);
    }
    ::close(c);
  });

  rpc::HealthRegistry::global().reset();
  auto& counters = rpc::ResilienceCounters::global();
  const uint64_t misses_before =
      counters.deadline_misses.load(std::memory_order_relaxed);

  rpc::RpcClientOptions co;
  co.connect_timeout_ms = 1000;
  co.recv_timeout_ms = 10'000;  // per-recv bound alone would never trip
  co.call_timeout_ms = 300;
  rpc::RpcClient client(
      rpc::Endpoint{"127.0.0.1:" + std::to_string(port)}, co);
  const int64_t t0 = now_us();
  const auto resp = client.call(1, rpc::Bytes{});
  const int64_t elapsed_ms = (now_us() - t0) / 1000;
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.error().code, ErrorCode::kTimeout);
  EXPECT_GE(elapsed_ms, 250);
  EXPECT_LT(elapsed_ms, 3000);  // nowhere near the 10 s recv budget
  EXPECT_GT(counters.deadline_misses.load(std::memory_order_relaxed),
            misses_before);

  ::close(listen_fd);
  drip.join();
  rpc::HealthRegistry::global().reset();
}

// ---- server backpressure & drain ------------------------------------------

TEST(Backpressure, SaturatedServerShedsWithUnavailable) {
  rpc::RpcServerOptions so;
  so.bind_address = "127.0.0.1:0";
  so.handler_threads = 2;
  so.max_inflight_per_conn = 2;
  rpc::RpcServer server(so);
  server.register_handler(1, [](const rpc::Bytes& req) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return Result<rpc::Bytes>(req);
  });
  ASSERT_TRUE(server.start().ok());

  rpc::HealthRegistry::global().reset();
  auto& counters = rpc::ResilienceCounters::global();
  const uint64_t shed_before =
      counters.server_shed.load(std::memory_order_relaxed);

  rpc::AsyncRpcClient client(server.endpoint());
  std::vector<std::future<Result<rpc::Bytes>>> futures;
  for (uint8_t i = 0; i < 32; ++i) {
    futures.push_back(client.call_async(1, rpc::Bytes{i}));
  }
  size_t ok = 0, shed = 0;
  for (auto& fut : futures) {
    const auto resp = fut.get();  // every call resolves, none hang
    if (resp.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(resp.error().code, ErrorCode::kUnavailable);
      EXPECT_NE(resp.error().message.find("saturated"), std::string::npos);
      ++shed;
    }
  }
  EXPECT_GT(ok, 0u);
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(server.requests_shed(), shed);
  EXPECT_EQ(counters.server_shed.load(std::memory_order_relaxed),
            shed_before + shed);
  server.stop();
  rpc::HealthRegistry::global().reset();
}

TEST(Drain, InFlightResponsesDeliveredNewRequestsShed) {
  rpc::RpcServerOptions so;
  so.bind_address = "127.0.0.1:0";
  so.handler_threads = 4;
  rpc::RpcServer server(so);
  server.register_handler(1, [](const rpc::Bytes& req) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return Result<rpc::Bytes>(req);
  });
  ASSERT_TRUE(server.start().ok());

  rpc::HealthRegistry::global().reset();
  auto& counters = rpc::ResilienceCounters::global();
  const uint64_t drains_before =
      counters.drains.load(std::memory_order_relaxed);
  const uint64_t drained_before =
      counters.drained_requests.load(std::memory_order_relaxed);

  rpc::AsyncRpcClient client(server.endpoint());
  std::vector<std::future<Result<rpc::Bytes>>> inflight;
  for (uint8_t i = 0; i < 3; ++i) {
    inflight.push_back(client.call_async(1, rpc::Bytes{i}));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.drain(3000);
  EXPECT_TRUE(server.draining());
  EXPECT_EQ(server.inflight(), 0u);  // drain waited them out

  // Everything dispatched before the drain completed normally.
  for (uint8_t i = 0; i < 3; ++i) {
    const auto resp = inflight[i].get();
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ((*resp)[0], i);
  }
  EXPECT_GT(counters.drains.load(std::memory_order_relaxed), drains_before);
  EXPECT_GE(counters.drained_requests.load(std::memory_order_relaxed),
            drained_before + 3);

  // The connection stays answerable: post-drain requests are shed with
  // a real response, not a hang or a slammed socket.
  const auto late = client.call(1, rpc::Bytes{9});
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.error().code, ErrorCode::kUnavailable);
  EXPECT_NE(late.error().message.find("draining"), std::string::npos);

  server.stop();
  rpc::HealthRegistry::global().reset();
}

TEST(Backpressure, DataMoverQueueRejectsWhenSaturated) {
  const std::string pfs_root = temp_dir("mover_pfs");
  std::vector<std::string> rels;
  for (int i = 0; i < 12; ++i) {
    const std::string rel = "m" + std::to_string(i) + ".bin";
    const auto bytes = workload::expected_contents(rel, 2048);
    ASSERT_TRUE(storage::write_file(pfs_root + "/" + rel, bytes.data(),
                                    bytes.size())
                    .ok());
    rels.push_back(rel);
  }

  // One mover, a one-slot FIFO, and a PFS that takes ~40 ms per fetch:
  // four handler threads submitting concurrently must overflow it.
  storage::PfsOptions po;
  po.metadata_latency_us = 40'000;
  storage::PfsBackend pfs(pfs_root, po);
  server::HvacServerOptions so;
  so.cache_dir = temp_dir("mover_cache");
  so.data_mover_threads = 1;
  so.mover_queue_capacity = 1;
  so.rpc_handler_threads = 4;
  server::HvacServer server(&pfs, so);
  ASSERT_TRUE(server.start().ok());

  rpc::HealthRegistry::global().reset();
  auto& counters = rpc::ResilienceCounters::global();
  const uint64_t rejects_before =
      counters.mover_rejects.load(std::memory_order_relaxed);

  // Concurrent one-path batches: prefetch_many batches per server (one
  // kPrefetchBatch call submits its fetches sequentially inside a
  // single handler), so saturating the one-slot queue needs the calls
  // fanned out individually across the four handler threads.
  rpc::AsyncRpcClient direct(rpc::Endpoint{server.address()});
  std::vector<std::future<Result<rpc::Bytes>>> futs;
  for (const auto& rel : rels) {
    rpc::WireWriter w;
    w.put_u32(1);
    w.put_string(rel);
    futs.push_back(direct.call_async(proto::kPrefetchBatch, w.bytes()));
  }
  size_t warmed = 0;
  for (auto& fut : futs) {
    const auto resp = fut.get();
    // (n u32 = 1, status u8)
    if (resp.ok() && resp->size() == 5 &&
        (*resp)[4] == proto::kPrefetchCached) {
      ++warmed;
    }
  }

  const uint64_t rejects =
      counters.mover_rejects.load(std::memory_order_relaxed) -
      rejects_before;
  EXPECT_GT(rejects, 0u);
  EXPECT_LT(warmed, rels.size());  // the rejected ones were not warmed
  EXPECT_EQ(warmed + rejects, rels.size());
  server.stop();
  rpc::HealthRegistry::global().reset();
}

// ---- the headline chaos scenario ------------------------------------------

// Two servers, one killed mid-epoch. The 1000-read workload must (a)
// complete with byte-exact results, (b) pay the detection penalty
// once — after the breaker trips, reads homed at the dead server fail
// over to the PFS in microseconds — and (c) leave the breaker
// transitions visible in the metrics frame.
TEST(Chaos, KillOneOfTwoServersMidEpoch) {
  const std::string pfs_root = temp_dir("kill_pfs");
  constexpr int kFiles = 16;
  constexpr size_t kFileSize = 8192;
  std::vector<std::string> rels;
  std::vector<std::vector<uint8_t>> contents;
  for (int i = 0; i < kFiles; ++i) {
    const std::string rel = "f" + std::to_string(i) + ".bin";
    contents.push_back(workload::expected_contents(rel, kFileSize));
    ASSERT_TRUE(storage::write_file(pfs_root + "/" + rel,
                                    contents.back().data(), kFileSize)
                    .ok());
    rels.push_back(rel);
  }

  // One strike opens the circuit and a 60 s backoff keeps it open for
  // the rest of the test — the schedule is deterministic.
  ::setenv("HVAC_BREAKER_FAILURES", "1", 1);
  ::setenv("HVAC_BREAKER_BASE_MS", "60000", 1);
  ::setenv("HVAC_BREAKER_MAX_MS", "60000", 1);
  rpc::HealthRegistry::global().reset();
  auto& counters = rpc::ResilienceCounters::global();
  const uint64_t opens_before =
      counters.breaker_opens.load(std::memory_order_relaxed);
  const uint64_t shed_before =
      counters.breaker_shed.load(std::memory_order_relaxed);

  server::NodeRuntimeOptions no;
  no.pfs_root = pfs_root;
  no.cache_root = temp_dir("kill_cache");
  no.instances = 2;
  server::NodeRuntime node(no);
  ASSERT_TRUE(node.start().ok());

  client::HvacClientOptions co;
  co.dataset_dir = pfs_root;
  // Over TCP every warm read is an RPC, so the dead server is found.
  co.server_endpoints = tcp_endpoints(node);
  co.readahead_chunks = 0;  // keep the latency profile single-path
  co.rpc.connect_timeout_ms = 1000;
  co.rpc.recv_timeout_ms = 1000;
  co.rpc.call_timeout_ms = 2000;
  co.rpc.max_retries = 0;
  client::HvacClient client(co);

  auto read_all = [&](int i) {
    const std::string path = pfs_root + "/" + rels[i % kFiles];
    auto vfd = client.open(path);
    ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
    std::vector<uint8_t> data(kFileSize);
    const auto n = client.pread(*vfd, data.data(), data.size(), 0);
    ASSERT_TRUE(n.ok()) << n.error().to_string();
    ASSERT_EQ(*n, kFileSize);
    EXPECT_EQ(data, contents[i % kFiles]);
    ASSERT_TRUE(client.close(*vfd).ok());
  };

  // Healthy epoch: warm every file and record the baseline latency.
  std::vector<int64_t> healthy_us;
  for (int i = 0; i < kFiles; ++i) {
    const int64_t t0 = now_us();
    read_all(i);
    healthy_us.push_back(now_us() - t0);
  }
  std::sort(healthy_us.begin(), healthy_us.end());
  const int64_t healthy_p99 = healthy_us[healthy_us.size() - 1];

  // Kill instance 0 mid-epoch.
  node.instance(0).stop();

  // 1000 reads, all byte-exact. The first touch of a dead-homed file
  // pays the detection (instant ECONNREFUSED on loopback); everything
  // after rides the open breaker straight to the PFS.
  constexpr int kReads = 1000;
  std::vector<int64_t> degraded_us;
  degraded_us.reserve(kReads);
  for (int i = 0; i < kReads; ++i) {
    const int64_t t0 = now_us();
    read_all(i);
    degraded_us.push_back(now_us() - t0);
  }

  // Exactly one breaker trip: one dead endpoint, one-strike threshold,
  // backoff longer than the test.
  EXPECT_EQ(counters.breaker_opens.load(std::memory_order_relaxed),
            opens_before + 1);
  // The trip actually routed traffic: later calls were shed.
  EXPECT_GT(counters.breaker_shed.load(std::memory_order_relaxed),
            shed_before);

  // Post-detection p99 within 5x the healthy ceiling (generous floor
  // keeps slow CI machines from flaking the assertion).
  std::sort(degraded_us.begin(), degraded_us.end());
  const int64_t degraded_p99 = degraded_us[(kReads * 99) / 100];
  EXPECT_LT(degraded_p99, std::max<int64_t>(5 * healthy_p99, 20'000))
      << "healthy p99 " << healthy_p99 << "us, degraded p99 "
      << degraded_p99 << "us";

  // The fault domain is visible in the metrics frame the surviving
  // instance serves (resilience counters are process-wide here).
  const core::MetricsFrame frame = node.aggregated_frame();
  EXPECT_GE(frame.resilience.breaker_opens, 1u);
  EXPECT_GT(frame.resilience.breaker_shed, 0u);
  const std::string json = frame.to_json();
  EXPECT_NE(json.find("\"resilience\""), std::string::npos);
  EXPECT_NE(json.find("\"breaker_opens\""), std::string::npos);

  node.stop();
  ::unsetenv("HVAC_BREAKER_FAILURES");
  ::unsetenv("HVAC_BREAKER_BASE_MS");
  ::unsetenv("HVAC_BREAKER_MAX_MS");
  rpc::HealthRegistry::global().reset();
}

// Injected read faults flow end-to-end: a spec that fails the first
// two client reads forces the bounded recovery path, the workload
// still completes byte-exact, and the injections are visible in the
// stats dump.
TEST(Chaos, InjectedReadFaultsFailOpen) {
  const std::string pfs_root = temp_dir("inject_pfs");
  const std::string rel = "x.bin";
  const auto expected = workload::expected_contents(rel, 16'384);
  ASSERT_TRUE(storage::write_file(pfs_root + "/" + rel, expected.data(),
                                  expected.size())
                  .ok());

  server::NodeRuntimeOptions no;
  no.pfs_root = pfs_root;
  no.cache_root = temp_dir("inject_cache");
  server::NodeRuntime node(no);
  ASSERT_TRUE(node.start().ok());

  rpc::HealthRegistry::global().reset();
  ASSERT_TRUE(fault::configure("read:error=unavailable:count=2").ok());

  client::HvacClientOptions co;
  co.dataset_dir = pfs_root;
  co.server_endpoints = node.endpoints();
  client::HvacClient client(co);
  auto vfd = client.open(pfs_root + "/" + rel);
  ASSERT_TRUE(vfd.ok());
  std::vector<uint8_t> data(expected.size());
  // First two preads eat the injected fault; the third succeeds.
  EXPECT_FALSE(client.pread(*vfd, data.data(), data.size(), 0).ok());
  EXPECT_FALSE(client.pread(*vfd, data.data(), data.size(), 0).ok());
  const auto n = client.pread(*vfd, data.data(), data.size(), 0);
  ASSERT_TRUE(n.ok()) << n.error().to_string();
  EXPECT_EQ(*n, expected.size());
  EXPECT_EQ(data, expected);
  ASSERT_TRUE(client.close(*vfd).ok());

  EXPECT_EQ(fault::stats(fault::Site::kRead).errors, 2u);
  EXPECT_EQ(fault::total_injected(), 2u);
  const std::string json = client::stats_to_json(client.stats());
  EXPECT_NE(json.find("\"faults_injected\":2"), std::string::npos);

  fault::reset();
  node.stop();
  rpc::HealthRegistry::global().reset();
}

// ---- zero-copy fault sites ------------------------------------------------

// Every kernel transfer capped at 1.5 KiB: the sendfile loop resumes
// dozens of times per response and the client must still assemble the
// exact bytes. Exercises the short-transfer resume path under a real
// client/server pair rather than a bare socketpair.
TEST(Chaos, ZeroCopyShortTransfersStayByteExact) {
  const std::string pfs_root = temp_dir("zcshort_pfs");
  const std::string rel = "s.bin";
  const auto expected = workload::expected_contents(rel, 96'000);
  ASSERT_TRUE(storage::write_file(pfs_root + "/" + rel, expected.data(),
                                  expected.size())
                  .ok());

  server::NodeRuntimeOptions no;
  no.pfs_root = pfs_root;
  no.cache_root = temp_dir("zcshort_cache");
  server::NodeRuntime node(no);
  ASSERT_TRUE(node.start().ok());

  rpc::HealthRegistry::global().reset();
  ASSERT_TRUE(fault::configure("zc_send:short=1536").ok());

  client::HvacClientOptions co;
  co.dataset_dir = pfs_root;
  co.server_endpoints = tcp_endpoints(node);
  client::HvacClient client(co);

  std::vector<uint8_t> data(expected.size());
  for (int pass = 0; pass < 6; ++pass) {
    auto vfd = client.open(pfs_root + "/" + rel);
    ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
    std::fill(data.begin(), data.end(), 0);
    const auto n = client.pread(*vfd, data.data(), data.size(), 0);
    ASSERT_TRUE(n.ok()) << n.error().to_string();
    ASSERT_EQ(*n, expected.size());
    ASSERT_EQ(data, expected) << "pass " << pass;
    ASSERT_TRUE(client.close(*vfd).ok());
  }
  // The cap actually bit: cache-hit responses go out via sendfile.
  EXPECT_GT(fault::stats(fault::Site::kZcSend).shorts, 0u);

  fault::reset();
  node.stop();
  rpc::HealthRegistry::global().reset();
}

// A zero-copy send that dies mid-response poisons the stream — the
// frame header is already on the wire, so the server's only safe move
// is dropping the connection. The client sees a transport error
// mid-read, walks the bounded recovery path (re-open, re-read), and
// the application still gets byte-exact data.
TEST(Chaos, ZeroCopySendFailureMidTransferFailsOverByteExact) {
  const std::string pfs_root = temp_dir("zcfail_pfs");
  const std::string rel = "z.bin";
  const auto expected = workload::expected_contents(rel, 200'000);
  ASSERT_TRUE(storage::write_file(pfs_root + "/" + rel, expected.data(),
                                  expected.size())
                  .ok());

  server::NodeRuntimeOptions no;
  no.pfs_root = pfs_root;
  no.cache_root = temp_dir("zcfail_cache");
  server::NodeRuntime node(no);
  ASSERT_TRUE(node.start().ok());

  rpc::HealthRegistry::global().reset();

  client::HvacClientOptions co;
  co.dataset_dir = pfs_root;
  co.server_endpoints = tcp_endpoints(node);
  co.readahead_chunks = 0;  // one RPC per chunk: deterministic fault hits
  co.rpc.connect_timeout_ms = 1000;
  co.rpc.recv_timeout_ms = 1000;
  client::HvacClient client(co);

  std::vector<uint8_t> data(expected.size());
  // Warm until the server serves from cache — only cached reads ride
  // the sendfile path, so the fault site is dark until then.
  for (int i = 0; i < 200; ++i) {
    auto vfd = client.open(pfs_root + "/" + rel);
    ASSERT_TRUE(vfd.ok());
    ASSERT_TRUE(client.pread(*vfd, data.data(), data.size(), 0).ok());
    ASSERT_TRUE(client.close(*vfd).ok());
    if (node.aggregated_metrics().bytes_from_cache >= expected.size()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // The next two sendfile calls fail mid-response.
  ASSERT_TRUE(fault::configure("zc_send:error=io:count=2").ok());

  auto vfd = client.open(pfs_root + "/" + rel);
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  std::fill(data.begin(), data.end(), 0);
  const auto n = client.pread(*vfd, data.data(), data.size(), 0);
  ASSERT_TRUE(n.ok()) << n.error().to_string();
  EXPECT_EQ(*n, expected.size());
  EXPECT_EQ(data, expected);
  ASSERT_TRUE(client.close(*vfd).ok());
  EXPECT_GE(fault::stats(fault::Site::kZcSend).errors, 1u);

  // With the injection exhausted the path is healthy again.
  auto vfd2 = client.open(pfs_root + "/" + rel);
  ASSERT_TRUE(vfd2.ok());
  std::fill(data.begin(), data.end(), 0);
  const auto n2 = client.pread(*vfd2, data.data(), data.size(), 0);
  ASSERT_TRUE(n2.ok()) << n2.error().to_string();
  EXPECT_EQ(data, expected);
  ASSERT_TRUE(client.close(*vfd2).ok());

  fault::reset();
  node.stop();
  rpc::HealthRegistry::global().reset();
}

}  // namespace
}  // namespace hvac
