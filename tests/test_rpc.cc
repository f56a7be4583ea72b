// Tests for the RPC substrate: wire format, frame protocol, transport
// and the client/server pair (the Mercury-equivalent layer).
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/buffer_pool.h"
#include "common/fault_injection.h"
#include "rpc/async_client.h"
#include "rpc/protocol.h"
#include "rpc/rpc_client.h"
#include "rpc/rpc_server.h"
#include "rpc/socket.h"
#include "rpc/wire.h"

namespace hvac::rpc {
namespace {

// hvacd reads HVAC_FAULT at start-up. This suite builds bare RpcServers,
// so it reads the variable itself; the .zc_off leg in CMakeLists.txt
// sets it.
[[maybe_unused]] const bool kFaultsFromEnv = (fault::init_from_env(), true);

// ---- wire -----------------------------------------------------------------

TEST(Wire, RoundTripScalars) {
  WireWriter w;
  w.put_u8(7);
  w.put_u16(65535);
  w.put_u32(123456789);
  w.put_u64(0xdeadbeefcafebabeULL);
  w.put_i64(-42);
  w.put_f64(3.14159);
  WireReader r(w.bytes());
  EXPECT_EQ(r.get_u8().value(), 7);
  EXPECT_EQ(r.get_u16().value(), 65535);
  EXPECT_EQ(r.get_u32().value(), 123456789u);
  EXPECT_EQ(r.get_u64().value(), 0xdeadbeefcafebabeULL);
  EXPECT_EQ(r.get_i64().value(), -42);
  EXPECT_DOUBLE_EQ(r.get_f64().value(), 3.14159);
  EXPECT_TRUE(r.exhausted());
}

TEST(Wire, RoundTripStringAndBlob) {
  WireWriter w;
  w.put_string("hello/world.bin");
  const uint8_t blob[] = {1, 2, 3, 4, 5};
  w.put_blob(blob, sizeof(blob));
  WireReader r(w.bytes());
  EXPECT_EQ(r.get_string().value(), "hello/world.bin");
  const Bytes b = r.get_blob().value();
  ASSERT_EQ(b.size(), 5u);
  EXPECT_EQ(b[4], 5);
}

TEST(Wire, EmptyString) {
  WireWriter w;
  w.put_string("");
  WireReader r(w.bytes());
  EXPECT_EQ(r.get_string().value(), "");
}

TEST(Wire, TruncatedReadsFailWithProtocol) {
  WireWriter w;
  w.put_u32(7);
  WireReader r(w.bytes());
  EXPECT_TRUE(r.get_u32().ok());
  const auto fail = r.get_u64();
  ASSERT_FALSE(fail.ok());
  EXPECT_EQ(fail.error().code, ErrorCode::kProtocol);
}

TEST(Wire, OversizedStringLengthRejected) {
  WireWriter w;
  w.put_u32(1u << 30);  // claims 1 GiB follows; nothing does
  WireReader r(w.bytes());
  const auto s = r.get_string();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::kProtocol);
}

// ---- protocol ----------------------------------------------------------------

TEST(Protocol, HeaderRoundTrip) {
  FrameHeader h;
  h.payload_len = 1234;
  h.request_id = 0xabcdef;
  h.opcode = 42;
  h.kind = FrameKind::kResponse;
  h.status = ErrorCode::kNotFound;
  uint8_t buf[kHeaderSize];
  encode_header(h, buf);
  const auto d = decode_header(buf, kHeaderSize);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->payload_len, 1234u);
  EXPECT_EQ(d->request_id, 0xabcdefULL);
  EXPECT_EQ(d->opcode, 42);
  EXPECT_EQ(d->kind, FrameKind::kResponse);
  EXPECT_EQ(d->status, ErrorCode::kNotFound);
}

TEST(Protocol, BadMagicRejected) {
  uint8_t buf[kHeaderSize] = {0};
  const auto d = decode_header(buf, kHeaderSize);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.error().code, ErrorCode::kProtocol);
}

TEST(Protocol, OversizedFrameRejected) {
  FrameHeader h;
  h.payload_len = kMaxFrame + 1;
  uint8_t buf[kHeaderSize];
  encode_header(h, buf);
  EXPECT_FALSE(decode_header(buf, kHeaderSize).ok());
}

// ---- endpoint -----------------------------------------------------------------

TEST(Endpoint, HostPortParsing) {
  Endpoint e{"127.0.0.1:8080"};
  const auto hp = e.host_port();
  ASSERT_TRUE(hp.ok());
  EXPECT_EQ(hp->first, "127.0.0.1");
  EXPECT_EQ(hp->second, 8080);
  EXPECT_FALSE(Endpoint{"nohost"}.host_port().ok());
  EXPECT_FALSE(Endpoint{"h:99999"}.host_port().ok());
}

TEST(Endpoint, UnixDetection) {
  Endpoint u{"unix:/tmp/x.sock"};
  EXPECT_TRUE(u.is_unix());
  EXPECT_EQ(u.unix_path(), "/tmp/x.sock");
  EXPECT_FALSE(Endpoint{"127.0.0.1:1"}.is_unix());
}

// ---- transports -----------------------------------------------------------

// A TCP-bound server is reached over its node-local alias when dialled
// by the address it reports, and over plain TCP when dialled as
// localhost:PORT, a spelling that names no alias.
enum class Transport { kAlias, kTcp };

const char* transport_name(Transport t) {
  return t == Transport::kAlias ? "alias" : "tcp";
}

Endpoint dial_address(const RpcServer& server, Transport t) {
  if (t == Transport::kAlias) return server.endpoint();
  const auto hp = server.endpoint().host_port();
  EXPECT_TRUE(hp.ok());
  return Endpoint{"localhost:" + std::to_string(hp.ok() ? hp->second : 0)};
}

uint64_t local_conns(const RpcServer& server) {
  return server.reactor_stats().local_conns;
}

uint64_t all_conns(const RpcServer& server) {
  return server.reactor_stats().conns;
}

// Every connection the server accepted came over `t`.
void expect_transport(const RpcServer& server, Transport t) {
  EXPECT_GT(all_conns(server), 0u);
  EXPECT_EQ(local_conns(server),
            t == Transport::kAlias ? all_conns(server) : 0u)
      << transport_name(t);
}

// The abstract address a server bound to `endpoint` listens on.
struct AliasAddress {
  sockaddr_un addr{};
  socklen_t len = 0;
};

AliasAddress alias_address(const Endpoint& endpoint) {
  const std::string name = "hvac:" + endpoint.address;
  AliasAddress a;
  a.addr.sun_family = AF_UNIX;
  std::memcpy(a.addr.sun_path + 1, name.data(), name.size());
  a.len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + 1 +
                                 name.size());
  return a;
}

// Dials the alias directly: 0 on connect, else the errno.
int raw_alias_connect(const Endpoint& endpoint) {
  const AliasAddress a = alias_address(endpoint);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return errno;
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&a.addr), a.len);
  const int err = rc == 0 ? 0 : errno;
  ::close(fd);
  return err;
}

TEST(LocalAlias, NameSpellsTheBoundAddress) {
  EXPECT_EQ(local_alias_name(Endpoint{"127.0.0.1:4000"}),
            "@hvac:127.0.0.1:4000");
  RpcServer server(RpcServerOptions{"127.0.0.1:0", 1});
  ASSERT_TRUE(server.start().ok());
  EXPECT_EQ(raw_alias_connect(server.endpoint()), 0);
  EXPECT_NE(raw_alias_connect(dial_address(server, Transport::kTcp)), 0);
}

// ---- client/server integration -----------------------------------------------

class RpcFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    server_.register_handler(1, [](const Bytes& req) -> Result<Bytes> {
      Bytes out = req;  // echo
      return out;
    });
    server_.register_handler(2, [](const Bytes&) -> Result<Bytes> {
      return Error(ErrorCode::kNotFound, "nope");
    });
    server_.register_handler(3, [this](const Bytes&) -> Result<Bytes> {
      ++slow_calls_;
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      return Bytes{9};
    });
    ASSERT_TRUE(server_.start().ok());
  }

  RpcServer server_{RpcServerOptions{"127.0.0.1:0", 4}};
  std::atomic<int> slow_calls_{0};
};

TEST_F(RpcFixture, Echo) {
  RpcClient client(server_.endpoint());
  Bytes msg{1, 2, 3, 4};
  const auto resp = client.call(1, msg);
  ASSERT_TRUE(resp.ok()) << resp.error().to_string();
  EXPECT_EQ(*resp, msg);
  expect_transport(server_, Transport::kAlias);
}

TEST_F(RpcFixture, EchoOverTcp) {
  RpcClient client(dial_address(server_, Transport::kTcp));
  Bytes msg{1, 2, 3, 4};
  const auto resp = client.call(1, msg);
  ASSERT_TRUE(resp.ok()) << resp.error().to_string();
  EXPECT_EQ(*resp, msg);
  expect_transport(server_, Transport::kTcp);
}

TEST_F(RpcFixture, EmptyPayloadEcho) {
  RpcClient client(server_.endpoint());
  const auto resp = client.call(1, Bytes{});
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->empty());
}

TEST_F(RpcFixture, HandlerErrorPropagatesCodeAndMessage) {
  RpcClient client(server_.endpoint());
  const auto resp = client.call(2, Bytes{});
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.error().code, ErrorCode::kNotFound);
  EXPECT_EQ(resp.error().message, "nope");
}

TEST_F(RpcFixture, UnknownOpcodeIsUnimplemented) {
  RpcClient client(server_.endpoint());
  const auto resp = client.call(99, Bytes{});
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.error().code, ErrorCode::kUnimplemented);
}

TEST_F(RpcFixture, LargePayloadRoundTrip) {
  RpcClient client(server_.endpoint());
  Bytes big(3u << 20);  // 3 MiB
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 2654435761u >> 24);
  }
  const auto resp = client.call(1, big);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(*resp, big);
}

TEST_F(RpcFixture, SequentialCallsReuseConnection) {
  RpcClient client(server_.endpoint());
  for (int i = 0; i < 50; ++i) {
    Bytes msg{static_cast<uint8_t>(i)};
    const auto resp = client.call(1, msg);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ((*resp)[0], static_cast<uint8_t>(i));
  }
  EXPECT_EQ(server_.requests_served(), 50u);
}

TEST_F(RpcFixture, ConcurrentClientsAreServed) {
  constexpr int kClients = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &ok] {
      RpcClient client(server_.endpoint());
      for (int i = 0; i < 20; ++i) {
        Bytes msg{static_cast<uint8_t>(c), static_cast<uint8_t>(i)};
        const auto resp = client.call(1, msg);
        if (resp.ok() && *resp == msg) ++ok;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients * 20);
}

TEST_F(RpcFixture, SlowHandlersRunInParallel) {
  // 4 handler threads, 4 concurrent 30ms calls: wall clock must be
  // well under 4 x 30ms.
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([this] {
      RpcClient client(server_.endpoint());
      EXPECT_TRUE(client.call(3, Bytes{}).ok());
    });
  }
  for (auto& t : threads) t.join();
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  EXPECT_EQ(slow_calls_.load(), 4);
  EXPECT_LT(ms, 110.0);
}

TEST_F(RpcFixture, ReconnectAfterDisconnect) {
  RpcClient client(server_.endpoint());
  ASSERT_TRUE(client.call(1, Bytes{1}).ok());
  client.disconnect();
  const auto resp = client.call(1, Bytes{2});
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ((*resp)[0], 2);
}

TEST(RpcServer, ConnectToDeadServerIsUnavailable) {
  // Grab a free port, then close the listener before dialing it.
  Endpoint bound;
  {
    auto fd = listen_on(Endpoint{"127.0.0.1:0"}, &bound);
    ASSERT_TRUE(fd.ok());
  }
  RpcClient client(bound, RpcClientOptions{200, 200});
  const auto resp = client.call(1, Bytes{});
  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(resp.error().code == ErrorCode::kUnavailable ||
              resp.error().code == ErrorCode::kTimeout);
}

TEST(RpcServer, ServerStopThenCallFails) {
  auto server = std::make_unique<RpcServer>(RpcServerOptions{"127.0.0.1:0", 1});
  server->register_handler(1, [](const Bytes& b) -> Result<Bytes> {
    Bytes out = b;
    return out;
  });
  ASSERT_TRUE(server->start().ok());
  const Endpoint endpoint = server->endpoint();
  RpcClient client(endpoint, RpcClientOptions{300, 300});
  ASSERT_TRUE(client.call(1, Bytes{}).ok());
  server->stop();
  const auto resp = client.call(1, Bytes{});
  EXPECT_FALSE(resp.ok());
}

TEST(RpcServer, UnixDomainTransport) {
  const std::string sock = ::testing::TempDir() + "/hvac_rpc_test_" + std::to_string(::getpid()) + ".sock";
  RpcServer server(RpcServerOptions{"unix:" + sock, 2});
  server.register_handler(1, [](const Bytes& b) -> Result<Bytes> {
    Bytes out = b;
    return out;
  });
  ASSERT_TRUE(server.start().ok());
  RpcClient client(server.endpoint());
  Bytes msg{42};
  const auto resp = client.call(1, msg);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(*resp, msg);
  server.stop();
}

TEST(RpcClient, RequestOverMaxFrameRejectedClientSide) {
  RpcServer server(RpcServerOptions{"127.0.0.1:0", 1});
  ASSERT_TRUE(server.start().ok());
  RpcClient client(server.endpoint());
  Bytes huge(kMaxFrame + 1);
  const auto resp = client.call(1, huge);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.error().code, ErrorCode::kInvalidArgument);
}

// Pipelined handlers: one connection, many sequential calls with
// varied sizes, exercising the server's partial-read state machine.
class RpcPayloadSize : public ::testing::TestWithParam<size_t> {};

TEST_P(RpcPayloadSize, EchoAtSize) {
  RpcServer server(RpcServerOptions{"127.0.0.1:0", 2});
  server.register_handler(1, [](const Bytes& b) -> Result<Bytes> {
    Bytes out = b;
    return out;
  });
  ASSERT_TRUE(server.start().ok());
  RpcClient client(server.endpoint());
  Bytes msg(GetParam());
  for (size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<uint8_t>(i % 251);
  }
  const auto resp = client.call(1, msg);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(*resp, msg);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RpcPayloadSize,
                         ::testing::Values(0, 1, 13, 4096, 65537,
                                           1u << 20));

// ---- gathered writes ------------------------------------------------------

// send_vectored must survive partial writes: a socketpair with a tiny
// send buffer and a slow reader forces sendmsg to accept a few KiB at
// a time, so the iovec-advancing resume logic is exercised for both
// the "partial inside an entry" and "entry fully consumed" cases.
TEST(SendVectored, PartialWritesDeliverAllBytesInOrder) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const int snd = 4096;  // kernel clamps to its floor; still tiny
  ASSERT_EQ(::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &snd, sizeof(snd)),
            0);

  Bytes header(64);
  Bytes body(1u << 20);  // 1 MiB >> SO_SNDBUF: guarantees partials
  for (size_t i = 0; i < header.size(); ++i) {
    header[i] = static_cast<uint8_t>(i);
  }
  for (size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<uint8_t>(i * 2654435761u >> 24);
  }

  Bytes received;
  received.reserve(header.size() + body.size());
  std::thread reader([&] {
    uint8_t buf[1536];  // smaller than the send buffer: drains slowly
    for (;;) {
      const ssize_t n = ::read(sv[1], buf, sizeof(buf));
      if (n <= 0) break;
      received.insert(received.end(), buf, buf + n);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  iovec iov[2];
  iov[0].iov_base = header.data();
  iov[0].iov_len = header.size();
  iov[1].iov_base = body.data();
  iov[1].iov_len = body.size();
  EXPECT_TRUE(send_vectored(sv[0], iov, 2).ok());
  ::close(sv[0]);  // EOF for the reader
  reader.join();
  ::close(sv[1]);

  ASSERT_EQ(received.size(), header.size() + body.size());
  EXPECT_TRUE(std::equal(header.begin(), header.end(), received.begin()));
  EXPECT_TRUE(std::equal(body.begin(), body.end(),
                         received.begin() + header.size()));
}

TEST(SendVectored, ClosedPeerReportsError) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ::close(sv[1]);
  Bytes data(1u << 16, 0x5a);
  iovec iov[1];
  iov[0].iov_base = data.data();
  iov[0].iov_len = data.size();
  // Must fail with a Status (EPIPE), not kill the process with SIGPIPE.
  EXPECT_FALSE(send_vectored(sv[0], iov, 1).ok());
  ::close(sv[0]);
}

// ---- frame-size bound -----------------------------------------------------

void run_frame_over_max_drops_connection(Transport t) {
  RpcServerOptions opts{"127.0.0.1:0", 2};
  opts.max_frame_bytes = 1024;
  RpcServer server(opts);
  server.register_handler(1, [](const Bytes& b) -> Result<Bytes> {
    Bytes out = b;
    return out;
  });
  ASSERT_TRUE(server.start().ok());

  const Endpoint dial = dial_address(server, t);
  RpcClient client(dial, RpcClientOptions{500, 500});
  // Within the bound: served normally.
  ASSERT_TRUE(client.call(1, Bytes(512)).ok());
  // Over the bound: the server drops the connection before sizing a
  // buffer to the hostile header; the client sees a dead transport.
  const auto resp = client.call(1, Bytes(2048));
  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(resp.error().code == ErrorCode::kUnavailable ||
              resp.error().code == ErrorCode::kTimeout);
  // The server itself stays healthy for new connections.
  RpcClient fresh(dial);
  EXPECT_TRUE(fresh.call(1, Bytes(256)).ok());
  expect_transport(server, t);
}

TEST(RpcServer, FrameOverMaxFrameBytesDropsConnection) {
  run_frame_over_max_drops_connection(Transport::kAlias);
}

TEST(RpcServer, FrameOverMaxFrameBytesDropsTcpConnection) {
  run_frame_over_max_drops_connection(Transport::kTcp);
}

// ---- one wakeup per request frame ------------------------------------------

// Pins the calling thread, and every thread it starts afterwards, to
// one CPU for its lifetime; restores the old mask on destruction.
class OneCpu {
 public:
  OneCpu() {
    ok_ = ::sched_getaffinity(0, sizeof(old_), &old_) == 0;
    int cpu = 0;
    while (ok_ && cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &old_)) ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ok_ = ok_ && ::sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~OneCpu() {
    if (ok_) ::sched_setaffinity(0, sizeof(old_), &old_);
  }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;
  bool ok() const { return ok_; }

 private:
  cpu_set_t old_{};
  bool ok_ = false;
};

// A request whose header and body leave in separate sends wakes the
// server twice when both ends share a CPU: the header alone makes the
// socket readable, the reactor reads it, finds no body and sleeps. A
// gathered send leaves every frame whole in the socket on the first
// wakeup.
void run_request_frames_in_one_readiness_event(Transport t) {
  OneCpu pin;
  ASSERT_TRUE(pin.ok());
  RpcServer server(RpcServerOptions{"127.0.0.1:0", 2});
  server.register_handler(1, [](const Bytes& b) -> Result<Bytes> {
    Bytes out = b;
    return out;
  });
  ASSERT_TRUE(server.start().ok());

  const Bytes body(64, 0x5a);
  RpcClient sync_client(dial_address(server, t));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(sync_client.call(1, body).ok());
  }
  AsyncRpcClient async_client(dial_address(server, t));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(async_client.call(1, body).ok());
  }
  EXPECT_EQ(server.requests_served(), 2000u);
  EXPECT_EQ(server.split_frames(), 0u);
  expect_transport(server, t);
}

TEST(RpcServer, RequestFramesArriveInOneReadinessEvent) {
  run_request_frames_in_one_readiness_event(Transport::kAlias);
}

TEST(RpcServer, RequestFramesArriveInOneReadinessEventOverTcp) {
  run_request_frames_in_one_readiness_event(Transport::kTcp);
}

// ---- node-local alias lifecycle --------------------------------------------

TEST(RpcServer, AliasRefusesConnectionsAfterDrain) {
  RpcServer server(RpcServerOptions{"127.0.0.1:0", 2});
  ASSERT_TRUE(server.start().ok());
  ASSERT_EQ(raw_alias_connect(server.endpoint()), 0);
  server.drain(1000);
  // The reactor that owns the alias closes it on its next wakeup.
  int err = 0;
  for (int i = 0; i < 200 && err == 0; ++i) {
    err = raw_alias_connect(server.endpoint());
    if (err == 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(err, ECONNREFUSED);
  server.stop();
}

TEST(RpcServer, RestartedServerIsReachedThroughItsNewAlias) {
  auto echo = [](const Bytes& b) -> Result<Bytes> {
    Bytes out = b;
    return out;
  };
  auto first = std::make_unique<RpcServer>(RpcServerOptions{"127.0.0.1:0", 2});
  first->register_handler(1, echo);
  ASSERT_TRUE(first->start().ok());
  const Endpoint endpoint = first->endpoint();
  RpcClient client(endpoint, RpcClientOptions{500, 500});
  ASSERT_TRUE(client.call(1, Bytes{1}).ok());
  expect_transport(*first, Transport::kAlias);
  first->stop();
  first.reset();
  EXPECT_EQ(raw_alias_connect(endpoint), ECONNREFUSED);

  RpcServer second(RpcServerOptions{endpoint.address, 2});
  second.register_handler(1, echo);
  ASSERT_TRUE(second.start().ok());
  // The first call may still meet the dead connection; the redial after
  // it must land on the new alias.
  Result<Bytes> resp = client.call(1, Bytes{2});
  if (!resp.ok()) resp = client.call(1, Bytes{2});
  ASSERT_TRUE(resp.ok()) << resp.error().to_string();
  EXPECT_EQ(*resp, Bytes{2});
  expect_transport(second, Transport::kAlias);
  HealthRegistry::global().reset();
}

// Abstract names carry no file permissions: another user can bind a
// server's alias before it starts. The server must still start, and
// clients must refuse the squatter (its SO_PEERCRED uid is neither
// theirs nor root's) and reach the real server over TCP.
TEST(RpcServer, SquattedAliasIsRefusedAndTcpServes) {
  if (::geteuid() != 0) GTEST_SKIP() << "needs root to run a squatter uid";
  Endpoint reserved;
  {
    auto fd = listen_on(Endpoint{"127.0.0.1:0"}, &reserved);
    ASSERT_TRUE(fd.ok());
  }
  const AliasAddress squat = alias_address(reserved);
  int ready[2];
  int release[2];
  ASSERT_EQ(::pipe(ready), 0);
  ASSERT_EQ(::pipe(release), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Raw syscalls only between fork and _exit.
    ::close(ready[0]);
    ::close(release[1]);
    char status = 'E';
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (::setuid(65534) == 0 && fd >= 0 &&
        ::bind(fd, reinterpret_cast<const sockaddr*>(&squat.addr),
               squat.len) == 0 &&
        ::listen(fd, 16) == 0) {
      status = 'S';
    }
    (void)!::write(ready[1], &status, 1);
    char byte;
    (void)!::read(release[0], &byte, 1);  // until the parent closes it
    ::_exit(0);
  }
  ::close(ready[1]);
  ::close(release[0]);
  char status = 0;
  ASSERT_EQ(::read(ready[0], &status, 1), 1);
  ::close(ready[0]);
  auto reap = [&] {
    ::close(release[1]);
    int ws = 0;
    ::waitpid(child, &ws, 0);
  };
  if (status != 'S') {
    reap();
    GTEST_SKIP() << "could not bind the alias as uid 65534";
  }
  // The squatter answers on the alias.
  EXPECT_EQ(raw_alias_connect(reserved), 0);

  RpcServer server(RpcServerOptions{reserved.address, 2});
  server.register_handler(1, [](const Bytes& b) -> Result<Bytes> {
    Bytes out = b;
    return out;
  });
  ASSERT_TRUE(server.start().ok());
  ASSERT_EQ(server.endpoint().address, reserved.address);
  RpcClient client(server.endpoint(), RpcClientOptions{500, 500});
  const Bytes msg{7, 8, 9};
  const auto resp = client.call(1, msg);
  ASSERT_TRUE(resp.ok()) << resp.error().to_string();
  EXPECT_EQ(*resp, msg);
  EXPECT_EQ(server.requests_served(), 1u);
  expect_transport(server, Transport::kTcp);
  server.stop();
  reap();
}

// ---- fd passing -------------------------------------------------------------

// Open fds of this process.
size_t open_fd_count() {
  size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)e;
    ++n;
  }
  return n;
}

// A handler's Payload::set_fd reaches a trusted AF_UNIX peer (the
// alias, or a unix: endpoint) as a working fd on a call_payload with
// take_fd. A TCP peer, and a call that did not opt in, get none, and
// the server's own copy closes with the payload either way.
TEST(FdPassing, TrustedUnixPeersReceiveTcpPeersDoNot) {
  HealthRegistry::global().reset();
  const std::string unix_address = "unix:" + ::testing::TempDir() +
                                   "hvac_fdpass_" +
                                   std::to_string(::getpid()) + ".sock";
  for (const std::string& bind : {std::string("127.0.0.1:0"), unix_address}) {
    SCOPED_TRACE(bind);
    const size_t before = open_fd_count();
    auto owned = std::make_unique<RpcServer>(RpcServerOptions{bind, 2});
    RpcServer& server = *owned;
    std::atomic<bool> trusted{false};
    server.register_payload_handler(
        1, [&](const Bytes&) -> Result<Payload> {
          trusted = peer_takes_fds();
          Payload p(Bytes{42});
          if (trusted) p.set_fd(Fd(::open("/dev/null", O_RDONLY | O_CLOEXEC)));
          return p;
        });
    ASSERT_TRUE(server.start().ok());
    {
      RpcClient client(server.endpoint());
      auto resp = client.call_payload(1, Bytes{}, /*take_fd=*/true);
      ASSERT_TRUE(resp.ok()) << resp.error().to_string();
      EXPECT_TRUE(trusted);
      ASSERT_GE(resp->fd(), 0);
      EXPECT_EQ(::fcntl(resp->fd(), F_GETFD) & FD_CLOEXEC, FD_CLOEXEC);
      auto plain = client.call_payload(1, Bytes{});
      ASSERT_TRUE(plain.ok());
      EXPECT_EQ(plain->fd(), -1);
    }
    if (!Endpoint{bind}.is_unix()) {
      RpcClient tcp(dial_address(server, Transport::kTcp));
      auto resp = tcp.call_payload(1, Bytes{}, /*take_fd=*/true);
      ASSERT_TRUE(resp.ok()) << resp.error().to_string();
      EXPECT_FALSE(trusted);
      EXPECT_EQ(resp->fd(), -1);
    }
    owned.reset();
    EXPECT_EQ(open_fd_count(), before);
  }
}

// Sends `frame` with `fds` attached as one SCM_RIGHTS message.
void send_with_fds(int sock, const Bytes& frame, const std::vector<int>& fds) {
  iovec iov{const_cast<uint8_t*>(frame.data()), frame.size()};
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  std::vector<char> control(CMSG_SPACE(fds.size() * sizeof(int)));
  msg.msg_control = control.data();
  msg.msg_controllen = control.size();
  cmsghdr* cmsg = CMSG_FIRSTHDR(&msg);
  cmsg->cmsg_level = SOL_SOCKET;
  cmsg->cmsg_type = SCM_RIGHTS;
  cmsg->cmsg_len = CMSG_LEN(fds.size() * sizeof(int));
  std::memcpy(CMSG_DATA(cmsg), fds.data(), fds.size() * sizeof(int));
  ASSERT_EQ(::sendmsg(sock, &msg, MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
}

Bytes response_frame(uint64_t id, ErrorCode status, const Bytes& body) {
  FrameHeader h;
  h.payload_len = static_cast<uint32_t>(body.size());
  h.request_id = id;
  h.opcode = 1;
  h.kind = FrameKind::kResponse;
  h.status = status;
  uint8_t hdr[kMaxHeaderSize];
  const size_t len = encode_header(h, hdr);
  Bytes frame(hdr, hdr + len);
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

// A hostile unix-socket server attaches an fd to every frame it writes.
// The request's one byte picks the shape: a stale-id frame before the
// answer, an error answer, an answer to a call that did not opt in, or
// an answer carrying two fds. After 200
// calls the client holds no fd it did not hand back.
TEST(FdPassing, HostileFramesLeakNoFds) {
  HealthRegistry::global().reset();
  enum Shape : uint8_t { kTwoFds = 0, kStale, kError, kNotOptedIn };
  const size_t baseline = open_fd_count();
  const std::string path = ::testing::TempDir() + "hvac_fdleak_" +
                           std::to_string(::getpid()) + ".sock";
  const Endpoint endpoint{"unix:" + path};
  auto listener = listen_on(endpoint, nullptr);
  ASSERT_TRUE(listener.ok()) << listener.error().to_string();
  const int attach = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(attach, 0);
  std::atomic<bool> done{false};
  std::thread hostile([&] {
    while (!done) {
      const int conn = ::accept4(listener->get(), nullptr, nullptr,
                                 SOCK_CLOEXEC);
      if (conn < 0) return;
      for (;;) {
        uint8_t hdr[kHeaderSize];
        if (!recv_all(conn, hdr, sizeof(hdr)).ok()) break;
        auto req = decode_header(hdr, sizeof(hdr));
        if (!req.ok() || req->payload_len != 1) break;
        uint8_t shape = 0;
        if (!recv_all(conn, &shape, 1).ok()) break;
        const uint64_t id = req->request_id;
        switch (shape) {
          case kTwoFds:
            send_with_fds(conn, response_frame(id, ErrorCode::kOk, {1}),
                          {attach, attach});
            break;
          case kStale:
            send_with_fds(conn, response_frame(id + 1000, ErrorCode::kOk, {}),
                          {attach});
            send_with_fds(conn, response_frame(id, ErrorCode::kOk, {2}),
                          {attach});
            break;
          case kError: {
            WireWriter w;
            w.put_string("no such file");
            send_with_fds(conn,
                          response_frame(id, ErrorCode::kNotFound,
                                         std::move(w).take()),
                          {attach});
            break;
          }
          default:
            send_with_fds(conn, response_frame(id, ErrorCode::kOk, {3}),
                          {attach});
        }
      }
      ::close(conn);
    }
  });

  {
    RpcClient client(endpoint, RpcClientOptions{500, 500});
    size_t taken = 0;
    for (int i = 0; i < 200; ++i) {
      const uint8_t shape = static_cast<uint8_t>(i % 4);
      const Bytes request{shape};
      if (shape == kNotOptedIn) {
        auto resp = client.call_payload(1, request);
        ASSERT_TRUE(resp.ok()) << resp.error().to_string();
        EXPECT_EQ(resp->fd(), -1);
        continue;
      }
      auto resp = client.call_payload(1, request, /*take_fd=*/true);
      if (shape == kStale) {
        ASSERT_TRUE(resp.ok()) << resp.error().to_string();
        ASSERT_EQ(resp->size(), 1u);
        EXPECT_EQ(resp->data()[0], 2);
        EXPECT_GE(resp->fd(), 0);  // the answer's own fd, closed with resp
        ++taken;
      } else if (shape == kError) {
        ASSERT_FALSE(resp.ok());
        EXPECT_EQ(resp.error().code, ErrorCode::kNotFound);
      } else {
        ASSERT_FALSE(resp.ok());  // two fds: the call fails, both close
      }
    }
    EXPECT_EQ(taken, 50u);
    done = true;
  }  // the client's socket closes: the hostile loop ends
  hostile.join();
  listener->reset();
  ::close(attach);
  ::unlink(path.c_str());
  EXPECT_EQ(open_fd_count(), baseline);
}

// ---- connect deadlines ------------------------------------------------------

// A unix listener whose backlog is full never lets a blocking connect
// return; connect_to must give up at its deadline instead.
TEST(ConnectTo, FullUnixBacklogTimesOut) {
  const std::string path = ::testing::TempDir() + "/hvac_backlog_" +
                           std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  const int listener = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 0), 0);  // never accepted

  // A connect that hangs fails the test by SIGALRM instead of stalling
  // the suite.
  ::alarm(10);
  const Endpoint endpoint{"unix:" + path};
  auto first = connect_to(endpoint, 200);
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  const auto start = std::chrono::steady_clock::now();
  const auto second = connect_to(endpoint, 200);
  const auto waited = std::chrono::steady_clock::now() - start;
  ::alarm(0);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code, ErrorCode::kTimeout);
  EXPECT_GE(waited, std::chrono::milliseconds(150));
  EXPECT_LT(waited, std::chrono::seconds(1));
  ::close(listener);
  ::unlink(path.c_str());
}

// ---- pooled payload path --------------------------------------------------

TEST(RpcPayload, PayloadHandlerRoundTripThroughPool) {
  RpcServer server(RpcServerOptions{"127.0.0.1:0", 2});
  // Handler preads nothing — it builds a pooled blob response exactly
  // like the server read path does.
  server.register_payload_handler(7, [](const Bytes& req) -> Result<Payload> {
    WireReader r(req);
    HVAC_ASSIGN_OR_RETURN(uint32_t n, r.get_u32());
    auto lease = BufferPool::global().acquire(kBlobPrefix + n);
    for (uint32_t i = 0; i < n; ++i) {
      lease.data()[kBlobPrefix + i] = static_cast<uint8_t>(i % 253);
    }
    return blob_payload(std::move(lease), n);
  });
  ASSERT_TRUE(server.start().ok());

  RpcClient client(server.endpoint());
  for (const uint32_t n : {0u, 1u, 4096u, 1u << 20}) {
    WireWriter w;
    w.put_u32(n);
    auto resp = client.call_payload(7, w.bytes());
    ASSERT_TRUE(resp.ok()) << resp.error().to_string();
    WireReader r(resp->data(), resp->size());
    const auto view = r.get_blob_view();
    ASSERT_TRUE(view.ok());
    ASSERT_EQ(view->size, n);
    for (uint32_t i = 0; i < n; ++i) {
      ASSERT_EQ(view->data[i], static_cast<uint8_t>(i % 253)) << i;
    }
  }
}

// ---- scatter frame --------------------------------------------------------

TEST(Wire, ScatterDecodeRoundTrip) {
  WireWriter w;
  w.put_u32(3);
  w.put_u64(0);
  w.put_u32(3);
  w.put_u64(4096);
  w.put_u32(2);
  w.put_u64(1 << 20);  // fully past EOF: zero-length extent, no data
  w.put_u32(0);
  Bytes frame = w.bytes();
  const uint8_t body[5] = {10, 20, 30, 40, 50};
  frame.insert(frame.end(), body, body + 5);

  const auto view = decode_scatter(frame.data(), frame.size());
  ASSERT_TRUE(view.ok()) << view.error().to_string();
  ASSERT_EQ(view->extents.size(), 3u);
  EXPECT_EQ(view->extents[0].offset, 0u);
  ASSERT_EQ(view->extents[0].length, 3u);
  EXPECT_EQ(view->extents[0].data[0], 10);
  EXPECT_EQ(view->extents[0].data[2], 30);
  EXPECT_EQ(view->extents[1].offset, 4096u);
  ASSERT_EQ(view->extents[1].length, 2u);
  EXPECT_EQ(view->extents[1].data[0], 40);
  EXPECT_EQ(view->extents[1].data[1], 50);
  EXPECT_EQ(view->extents[2].length, 0u);
}

TEST(Wire, ScatterDecodeRejectsMalformedFrames) {
  WireWriter w;
  w.put_u32(2);
  w.put_u64(0);
  w.put_u32(4);
  w.put_u64(100);
  w.put_u32(4);
  Bytes frame = w.bytes();
  // Table promises 8 data bytes; give it 7, then 9.
  frame.resize(frame.size() + 7, 0xab);
  EXPECT_FALSE(decode_scatter(frame.data(), frame.size()).ok());
  frame.resize(scatter_table_size(2) + 9, 0xab);
  EXPECT_FALSE(decode_scatter(frame.data(), frame.size()).ok());
  // Truncated mid-table.
  EXPECT_FALSE(decode_scatter(frame.data(), scatter_table_size(2) - 3).ok());
  // Extent count larger than the frame could possibly hold.
  WireWriter huge;
  huge.put_u32(1u << 30);
  EXPECT_FALSE(
      decode_scatter(huge.bytes().data(), huge.bytes().size()).ok());
}

// ---- zero-copy send ladder ------------------------------------------------

// A temp file filled with a deterministic pattern, plus the expected
// bytes for verification.
struct TempPatternFile {
  std::string path;
  int fd = -1;
  Bytes bytes;

  explicit TempPatternFile(size_t n) {
    path = ::testing::TempDir() + "zc_src_XXXXXX";
    fd = ::mkstemp(path.data());
    EXPECT_GE(fd, 0);
    bytes.resize(n);
    for (size_t i = 0; i < n; ++i) {
      bytes[i] = static_cast<uint8_t>((i * 31 + 7) % 251);
    }
    EXPECT_EQ(::pwrite(fd, bytes.data(), n, 0), static_cast<ssize_t>(n));
  }
  ~TempPatternFile() {
    if (fd >= 0) ::close(fd);
    ::unlink(path.c_str());
  }
};

Bytes drain_socket(int fd, size_t want) {
  Bytes out(want);
  size_t got = 0;
  while (got < want) {
    const ssize_t n = ::recv(fd, out.data() + got, want - got, 0);
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  out.resize(got);
  return out;
}

TEST(ZeroCopy, SendfileExactDeliversExactBytes) {
  constexpr size_t kSize = 256 * 1024 + 17;
  TempPatternFile src(kSize);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  Bytes received;
  std::thread reader([&] { received = drain_socket(sv[1], kSize); });
  EXPECT_TRUE(sendfile_exact(sv[0], src.fd, 0, kSize).ok());
  ::shutdown(sv[0], SHUT_WR);
  reader.join();
  EXPECT_EQ(received, src.bytes);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(ZeroCopy, SendfileExactHonoursOffset) {
  constexpr size_t kSize = 64 * 1024;
  constexpr size_t kOffset = 4096 + 3;
  TempPatternFile src(kSize);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  Bytes received;
  std::thread reader([&] { received = drain_socket(sv[1], kSize - kOffset); });
  EXPECT_TRUE(sendfile_exact(sv[0], src.fd, kOffset, kSize - kOffset).ok());
  ::shutdown(sv[0], SHUT_WR);
  reader.join();
  const Bytes expected(src.bytes.begin() + kOffset, src.bytes.end());
  EXPECT_EQ(received, expected);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(ZeroCopy, ShortSendfileResumesUntilComplete) {
  // Cap every kernel transfer at 4 KiB: a 64 KiB extent takes 16
  // sendfile calls, and every byte must still arrive in order.
  ASSERT_TRUE(fault::configure("zc_send:short=4096").ok());
  auto& zc = ZeroCopyCounters::global();
  const uint64_t resumes_before =
      zc.short_resumes.load(std::memory_order_relaxed);

  constexpr size_t kSize = 64 * 1024;
  TempPatternFile src(kSize);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  Bytes received;
  std::thread reader([&] { received = drain_socket(sv[1], kSize); });
  EXPECT_TRUE(sendfile_exact(sv[0], src.fd, 0, kSize).ok());
  ::shutdown(sv[0], SHUT_WR);
  reader.join();
  fault::SiteStats st = fault::stats(fault::Site::kZcSend);
  fault::reset();

  EXPECT_EQ(received, src.bytes);
  EXPECT_GT(st.shorts, 0u);
  EXPECT_GT(zc.short_resumes.load(std::memory_order_relaxed),
            resumes_before);
  ::close(sv[0]);
  ::close(sv[1]);
}

// ---- extent payloads through a live server --------------------------------

// Spins up a server whose handler answers with file-backed extents
// (opcode 8: single blob; opcode 9: scatter frame) and verifies the
// client sees byte-identical data after the server sendfiles them.
void run_extent_payload_roundtrip(Transport t) {
  constexpr size_t kFile = 512 * 1024;
  auto src = std::make_shared<TempPatternFile>(kFile);
  RpcServer server(RpcServerOptions{"127.0.0.1:0", 2});
  server.register_payload_handler(
      8, [src](const Bytes& req) -> Result<Payload> {
        WireReader r(req);
        HVAC_ASSIGN_OR_RETURN(uint64_t off, r.get_u64());
        HVAC_ASSIGN_OR_RETURN(uint32_t len, r.get_u32());
        FileExtent ext;
        ext.owner = src;
        ext.fd = src->fd;
        ext.offset = off;
        ext.length = len;
        return blob_extent_payload(std::move(ext));
      });
  server.register_payload_handler(
      9, [src](const Bytes& req) -> Result<Payload> {
        WireReader r(req);
        HVAC_ASSIGN_OR_RETURN(uint32_t n, r.get_u32());
        WireWriter table;
        table.put_u32(n);
        std::vector<std::pair<uint64_t, uint32_t>> wants(n);
        for (uint32_t i = 0; i < n; ++i) {
          HVAC_ASSIGN_OR_RETURN(wants[i].first, r.get_u64());
          HVAC_ASSIGN_OR_RETURN(wants[i].second, r.get_u32());
          table.put_u64(wants[i].first);
          table.put_u32(wants[i].second);
        }
        Payload p(table.bytes());
        for (const auto& [off, len] : wants) {
          FileExtent ext;
          ext.owner = src;
          ext.fd = src->fd;
          ext.offset = off;
          ext.length = len;
          p.add_extent(std::move(ext));
        }
        return p;
      });
  ASSERT_TRUE(server.start().ok());

  RpcClient client(dial_address(server, t));
  // Single-blob extents at assorted offsets and sizes.
  const std::pair<uint64_t, uint32_t> cases[] = {
      {0, 1}, {0, 4096}, {12345, 70000}, {kFile - 9, 9}};
  for (const auto& [off, len] : cases) {
    WireWriter w;
    w.put_u64(off);
    w.put_u32(len);
    auto resp = client.call_payload(8, w.bytes());
    ASSERT_TRUE(resp.ok()) << resp.error().to_string();
    WireReader r(resp->data(), resp->size());
    const auto view = r.get_blob_view();
    ASSERT_TRUE(view.ok());
    ASSERT_EQ(view->size, len);
    EXPECT_EQ(std::memcmp(view->data, src->bytes.data() + off, len), 0);
  }
  // A scatter response: three discontiguous extents in one frame.
  WireWriter w;
  w.put_u32(3);
  w.put_u64(0);
  w.put_u32(8192);
  w.put_u64(100000);
  w.put_u32(65536);
  w.put_u64(kFile - 512);
  w.put_u32(512);
  auto resp = client.call_payload(9, w.bytes());
  ASSERT_TRUE(resp.ok()) << resp.error().to_string();
  const auto view = decode_scatter(resp->data(), resp->size());
  ASSERT_TRUE(view.ok()) << view.error().to_string();
  ASSERT_EQ(view->extents.size(), 3u);
  for (const auto& ext : view->extents) {
    EXPECT_EQ(std::memcmp(ext.data, src->bytes.data() + ext.offset,
                          ext.length),
              0)
        << "extent at " << ext.offset;
  }
  expect_transport(server, t);
}

// Parameterised by send rung. Sendfile is the only rung left, so the
// suite has one instance; its name is kept so tier-1 results stay
// comparable across the rung deletion.
class ZeroCopyLeg : public ::testing::TestWithParam<const char*> {};

TEST_P(ZeroCopyLeg, ExtentPayloadRoundTrip) {
  run_extent_payload_roundtrip(Transport::kAlias);
}

TEST_P(ZeroCopyLeg, ExtentPayloadRoundTripOverTcp) {
  run_extent_payload_roundtrip(Transport::kTcp);
}

INSTANTIATE_TEST_SUITE_P(AllRungs, ZeroCopyLeg, ::testing::Values("sendfile"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace hvac::rpc
