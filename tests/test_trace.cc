// Tracing tests: concurrent ring emission (TSan leg), trace-context
// wire round-trip (both frame versions), exact drop accounting on
// ring overflow, and the end-to-end span tree of a traced zero-copy
// read that survives a fault-injected retry.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "client/hvac_client.h"
#include "common/fault_injection.h"
#include "common/log.h"
#include "common/trace.h"
#include "core/trace_wire.h"
#include "rpc/protocol.h"
#include "server/node_runtime.h"
#include "workload/file_tree.h"

namespace hvac {
namespace {

namespace fs = std::filesystem;
using client::HvacClient;
using client::HvacClientOptions;
using server::NodeRuntime;
using server::NodeRuntimeOptions;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "hvac_trace_" + name + "_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<trace::SpanRecord> named(
    const std::vector<trace::SpanRecord>& spans, const char* name) {
  std::vector<trace::SpanRecord> out;
  for (const auto& s : spans) {
    if (std::string(s.name) == name) out.push_back(s);
  }
  return out;
}

// 8 producers emit nested spans while a reader drains concurrently.
// Under TSan this exercises the push/drain acquire-release pairing;
// everywhere it checks that no record is lost or double-counted.
TEST(Trace, ConcurrentEmissionWhileDraining) {
  trace::init_for_test(true, 1u << 15);
  trace::drain();  // clear leftovers from other tests

  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> collected{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      collected += trace::drain().size();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        trace::Span outer("test.outer", uint64_t(i));
        trace::Span inner("test.inner");
        trace::Span::event("test.event");
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  collected += trace::drain().size();

  const auto st = trace::stats();
  // 3 records per iteration: outer, inner, event.
  EXPECT_EQ(st.emitted + st.dropped,
            uint64_t(kThreads) * kIters * 3);
  EXPECT_EQ(collected.load(), st.emitted);
  EXPECT_EQ(trace::stats().occupancy, 0u);
}

TEST(Trace, WireRoundTripTracedFrame) {
  rpc::FrameHeader h;
  h.payload_len = 123;
  h.request_id = 0x1122334455667788ull;
  h.opcode = 7;
  h.kind = rpc::FrameKind::kRequest;
  h.status = ErrorCode::kOk;
  h.has_trace = true;
  h.trace.trace_id = 0xdeadbeefcafef00dull;
  h.trace.parent_span_id = 42;
  h.trace.flags = trace::kFlagSampled;

  uint8_t buf[rpc::kMaxHeaderSize];
  const size_t n = rpc::encode_header(h, buf);
  ASSERT_EQ(n, rpc::kMaxHeaderSize);  // 20-byte header + 16-byte ctx

  auto d = rpc::decode_header(buf, rpc::kHeaderSize);
  ASSERT_TRUE(d.ok()) << d.error().to_string();
  EXPECT_TRUE(d->has_trace);
  EXPECT_EQ(d->payload_len, h.payload_len);
  EXPECT_EQ(d->request_id, h.request_id);
  EXPECT_EQ(d->opcode, h.opcode);
  ASSERT_TRUE(rpc::decode_trace_context(*d, buf + rpc::kHeaderSize,
                                        trace::kTraceContextSize)
                  .ok());
  EXPECT_EQ(d->trace.trace_id, h.trace.trace_id);
  EXPECT_EQ(d->trace.parent_span_id, h.trace.parent_span_id);
  EXPECT_EQ(d->trace.flags, h.trace.flags);
}

// Old-version (HVC1) frames must keep decoding — an untraced client
// against a traced server and vice versa is byte-identical to before.
TEST(Trace, WireRoundTripUntracedFrameStaysV1) {
  rpc::FrameHeader h;
  h.payload_len = 9;
  h.request_id = 5;
  h.opcode = 2;
  h.kind = rpc::FrameKind::kResponse;
  h.status = ErrorCode::kOk;

  uint8_t buf[rpc::kMaxHeaderSize];
  const size_t n = rpc::encode_header(h, buf);
  ASSERT_EQ(n, rpc::kHeaderSize);  // no trace → classic 20-byte frame

  auto d = rpc::decode_header(buf, rpc::kHeaderSize);
  ASSERT_TRUE(d.ok()) << d.error().to_string();
  EXPECT_FALSE(d->has_trace);
  EXPECT_EQ(d->request_id, h.request_id);
  EXPECT_FALSE(d->trace.valid());
}

// A full ring drops (never overwrites): the dropped counter moves by
// exactly the overflow and the buffered records survive untouched.
TEST(Trace, RingOverflowDropsExactly) {
  trace::drain();
  trace::init_for_test(true, /*ring_capacity=*/8);

  constexpr int kEmit = 20;
  std::thread t([] {  // fresh thread → fresh ring with capacity 8
    for (int i = 0; i < kEmit; ++i) {
      trace::Span span("test.ovf", uint64_t(i));
    }
  });
  t.join();

  const auto st = trace::stats();
  EXPECT_EQ(st.dropped, uint64_t(kEmit - 8));
  EXPECT_EQ(st.emitted, 8u);
  const auto survived = named(trace::drain(), "test.ovf");
  ASSERT_EQ(survived.size(), 8u);
  for (size_t i = 0; i < survived.size(); ++i) {
    EXPECT_EQ(survived[i].arg, i);  // oldest records kept, in order
  }
}

// End-to-end: a traced read against a live server produces ONE
// connected tree across the socket — client.pread → rpc.call (plus an
// rpc.retry event from a fault-injected send failure) → server.queue/
// server.dispatch → server.send → zc.sendfile — and the miss path
// additionally shows the mover's queue-wait vs fetch split.
TEST(Trace, EndToEndSpanTreeAcrossRetryAndZeroCopy) {
  trace::init_for_test(true, 1u << 15);
  trace::drain();

  const std::string pfs_root = temp_dir("pfs");
  const std::string cache_root = temp_dir("cache");
  // Larger than proto::kMaxInlineBytes: a smaller file travels whole
  // in the open reply and the read below would make no RPC at all.
  auto generated = workload::generate_tree(
      pfs_root, workload::synthetic_small(4, 1 << 17, 0.0));
  ASSERT_TRUE(generated.ok());

  NodeRuntimeOptions no;
  no.pfs_root = pfs_root;
  no.cache_root = cache_root;
  no.instances = 1;
  NodeRuntime node(no);
  ASSERT_TRUE(node.start().ok());

  HvacClientOptions co;
  co.dataset_dir = pfs_root;
  // localhost:PORT names no node-local alias: over TCP the read below
  // is an RPC, not a pread on a passed cache fd.
  const std::string port = node.endpoints()[0].substr(
      node.endpoints()[0].rfind(':') + 1);
  co.server_endpoints = {"localhost:" + port};
  co.readahead_chunks = 0;  // keep the read a single synchronous call
  co.meta_ttl_ms = 0;
  HvacClient hvac(co);

  const std::string path =
      pfs_root + "/" + generated->relative_paths[0];
  const size_t file_size = generated->sizes[0];

  // ---- Miss path: first open populates the cache via the mover.
  {
    auto vfd = hvac.open(path);
    ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
    std::vector<uint8_t> buf(file_size);
    ASSERT_TRUE(hvac.pread(*vfd, buf.data(), buf.size(), 0).ok());
    ASSERT_TRUE(hvac.close(*vfd).ok());
  }
  // The fetch runs on the mover thread; wait for its span to land.
  std::vector<trace::SpanRecord> miss_spans;
  for (int i = 0; i < 500 && named(miss_spans, "mover.fetch").empty();
       ++i) {
    for (const auto& s : trace::drain()) miss_spans.push_back(s);
    ::usleep(10 * 1000);
  }
  const auto fetches = named(miss_spans, "mover.fetch");
  const auto queue_waits = named(miss_spans, "mover.queue");
  ASSERT_FALSE(fetches.empty());
  ASSERT_FALSE(queue_waits.empty());
  // Queue-wait and fetch belong to the same trace as the open that
  // enqueued them, and stay distinguishable (different span names on
  // adjacent time ranges rather than one blob).
  EXPECT_EQ(fetches[0].trace_id, queue_waits[0].trace_id);
  EXPECT_NE(fetches[0].trace_id, 0u);

  // ---- Hit path under a forced retry: the first send attempt fails,
  // the idempotent read retries, and the served bytes go out via the
  // zero-copy sendfile rung. All of it must hang off one trace.
  auto vfd = hvac.open(path);
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  trace::drain();  // only the traced read below matters
  ASSERT_TRUE(
      fault::configure("rpc_send:error=unavailable:count=1").ok());
  std::vector<uint8_t> buf(file_size);
  const auto n = hvac.pread(*vfd, buf.data(), buf.size(), 0);
  fault::reset();
  ASSERT_TRUE(n.ok()) << n.error().to_string();
  EXPECT_EQ(*n, file_size);
  ASSERT_TRUE(hvac.close(*vfd).ok());

  // The server records its spans once the reply is on the wire, and
  // close sends nothing: poll until the read's server.queue (recorded
  // last) has landed.
  std::vector<trace::SpanRecord> spans = trace::drain();
  const auto preads = named(spans, "client.pread");
  ASSERT_EQ(preads.size(), 1u);
  const auto root = preads[0];
  EXPECT_EQ(root.parent_id, 0u);  // the read roots the trace
  auto server_done = [&] {
    for (const auto& s : named(spans, "server.queue")) {
      if (s.trace_id == root.trace_id) return true;
    }
    return false;
  };
  for (int i = 0; i < 500 && !server_done(); ++i) {
    ::usleep(2 * 1000);
    for (const auto& s : trace::drain()) spans.push_back(s);
  }

  std::map<uint32_t, trace::SpanRecord> by_id;
  for (const auto& s : spans) {
    if (s.trace_id == root.trace_id) by_id[s.span_id] = s;
  }
  // Every stage is present in the SAME trace.
  auto in_trace = [&](const char* name) {
    std::vector<trace::SpanRecord> out;
    for (const auto& [id, s] : by_id) {
      if (std::string(s.name) == name) out.push_back(s);
    }
    return out;
  };
  EXPECT_EQ(in_trace("rpc.call").size(), 2u);  // failed + retried
  ASSERT_EQ(in_trace("rpc.retry").size(), 1u);
  EXPECT_EQ(in_trace("rpc.retry")[0].parent_id, root.span_id);
  ASSERT_EQ(in_trace("server.dispatch").size(), 1u);
  ASSERT_EQ(in_trace("server.queue").size(), 1u);
  ASSERT_EQ(in_trace("server.send").size(), 1u);
  ASSERT_EQ(in_trace("zc.sendfile").size(), 1u);
  EXPECT_EQ(in_trace("zc.sendfile")[0].arg, file_size);

  // Connectivity: walk parents from the deepest span (the sendfile
  // rung) back up to the client read — one unbroken chain.
  uint32_t cursor = in_trace("zc.sendfile")[0].span_id;
  std::vector<std::string> chain;
  for (int hops = 0; hops < 16 && cursor != 0; ++hops) {
    auto it = by_id.find(cursor);
    ASSERT_NE(it, by_id.end()) << "broken parent link at " << cursor;
    chain.push_back(it->second.name);
    cursor = it->second.parent_id;
  }
  ASSERT_GE(chain.size(), 4u);
  EXPECT_EQ(chain.front(), "zc.sendfile");
  EXPECT_EQ(chain.back(), "client.pread");

  // The wire codec and Chrome export round-trip the same records.
  const auto payload = core::encode_spans(spans);
  const auto dumped = core::decode_spans(payload);
  ASSERT_TRUE(dumped.ok()) << dumped.error().to_string();
  ASSERT_EQ(dumped->size(), spans.size());
  EXPECT_EQ((*dumped)[0].name, std::string(spans[0].name));
  const std::string json = core::spans_to_chrome_json(
      {core::EndpointSpans{"localhost:0", *dumped, core::SpanDumpClock{}}});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("client.pread"), std::string::npos);

  // format_tree renders the slow-request dump from the same records.
  std::vector<trace::SpanRecord> one_trace;
  for (const auto& [id, s] : by_id) one_trace.push_back(s);
  const std::string tree = trace::format_tree(one_trace);
  EXPECT_NE(tree.find("client.pread"), std::string::npos);
  EXPECT_NE(tree.find("zc.sendfile"), std::string::npos);

  node.stop();
}

// HVAC_SLOW_MS: a root span that overruns the threshold prints its
// reconstructed tree to stderr; fast roots stay silent.
TEST(Trace, SlowRequestLogPrintsTree) {
  trace::init_for_test(true, 1u << 12, /*slow_ms=*/1);
  trace::drain();
  ::testing::internal::CaptureStderr();
  {
    trace::Span root("test.slowroot");
    trace::Span child("test.slowchild");
    ::usleep(3 * 1000);
  }
  {
    trace::Span fast("test.fastroot");
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("test.slowroot"), std::string::npos) << err;
  EXPECT_NE(err.find("test.slowchild"), std::string::npos) << err;
  EXPECT_EQ(err.find("test.fastroot"), std::string::npos) << err;
  trace::init_for_test(true, 1u << 12, /*slow_ms=*/0);
  trace::drain();
}

// Log lines emitted while a span is active carry the trace/span ids;
// lines outside any trace keep the original prefix.
TEST(Trace, LogLinesCarryTraceIds) {
  trace::init_for_test(true, 1u << 12);
  trace::drain();
  ::testing::internal::CaptureStderr();
  {
    trace::Span span("test.logspan");
    HVAC_LOG_ERROR("traced line marker");
  }
  HVAC_LOG_ERROR("untraced line marker");
  const std::string err = ::testing::internal::GetCapturedStderr();
  std::istringstream lines(err);
  std::string line;
  bool saw_traced = false, saw_untraced = false;
  while (std::getline(lines, line)) {
    if (line.find("traced line marker") != std::string::npos &&
        line.find("untraced") == std::string::npos) {
      saw_traced = true;
      EXPECT_NE(line.find(" [t="), std::string::npos) << line;
      EXPECT_NE(line.find(" s="), std::string::npos) << line;
    }
    if (line.find("untraced line marker") != std::string::npos) {
      saw_untraced = true;
      EXPECT_EQ(line.find(" [t="), std::string::npos) << line;
    }
  }
  EXPECT_TRUE(saw_traced);
  EXPECT_TRUE(saw_untraced);
  trace::drain();
}

// Spans are invisible to the frame format until a trace is actually
// active: with tracing disabled a Span is inert and current_context()
// stays empty, so requests keep the v1 wire shape.
TEST(Trace, DisabledTracerIsInert) {
  trace::init_for_test(false, 0);
  {
    trace::Span span("test.noop");
    EXPECT_FALSE(span.armed());
    EXPECT_EQ(trace::current_trace_id(), 0u);
    EXPECT_FALSE(trace::current_context().valid());
  }
  EXPECT_TRUE(trace::drain().empty());
  trace::init_for_test(true, 1u << 12);  // leave enabled for safety
  trace::drain();
}

}  // namespace
}  // namespace hvac
