// Microbenchmarks over the *real* RPC stack on loopback: synchronous
// round-trip latency, async pipelined throughput, and bulk-read
// bandwidth — the functional analogue of Mercury's performance
// envelope.
#include <arpa/inet.h>
#include <benchmark/benchmark.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "client/hvac_client.h"
#include "common/buffer_pool.h"
#include "common/trace.h"
#include "core/timeseries.h"
#include "server/prom_exporter.h"
#include "rpc/async_client.h"
#include "rpc/rpc_client.h"
#include "rpc/rpc_server.h"
#include "server/hvac_server.h"
#include "storage/packed_format.h"
#include "storage/pfs_backend.h"
#include "workload/file_tree.h"

namespace {

using namespace hvac::rpc;

// Backing file for the extent (zero-copy) benchmarks: 8 MiB of
// pattern bytes, unlinked, fd kept open for the binary's lifetime.
constexpr size_t kBenchFileSize = 8 << 20;

int shared_file() {
  static const int fd = [] {
    std::string path = "/tmp/hvac_bench_src_XXXXXX";
    const int f = ::mkstemp(path.data());
    if (f < 0) std::abort();
    ::unlink(path.c_str());
    Bytes data(kBenchFileSize);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<uint8_t>((i * 31 + 7) % 251);
    }
    if (::pwrite(f, data.data(), data.size(), 0) !=
        ssize_t(data.size())) {
      std::abort();
    }
    return f;
  }();
  return fd;
}

// One server for the whole binary.
RpcServer& shared_server() {
  static RpcServer* server = [] {
    auto* s = new RpcServer(RpcServerOptions{"127.0.0.1:0", 8});
    s->register_handler(1, [](const Bytes& req) -> hvac::Result<Bytes> {
      Bytes out = req;
      return out;
    });
    s->register_handler(2, [](const Bytes& req) -> hvac::Result<Bytes> {
      // "bulk read": returns a payload of the requested size.
      WireReader r(req);
      auto n = r.get_u32();
      Bytes out(n.ok() ? *n : 0);
      return out;
    });
    // Opcode 4 is opcode 2 with a file-backed body: the bytes go out
    // kernel-to-kernel (sendfile) and never touch user space on the
    // server.
    s->register_payload_handler(4, [](const Bytes& req)
                                       -> hvac::Result<Payload> {
      WireReader r(req);
      auto n = r.get_u32();
      FileExtent ext;
      ext.fd = shared_file();
      ext.offset = 0;
      ext.length = n.ok() ? *n : 0;
      return blob_extent_payload(std::move(ext));
    });
    // Opcode 5: scatter frame — n extents of `len` bytes each in ONE
    // framed response, the shape a read-ahead batch collapses into.
    s->register_payload_handler(5, [](const Bytes& req)
                                       -> hvac::Result<Payload> {
      WireReader r(req);
      auto n = r.get_u32();
      auto len = r.get_u32();
      const uint32_t count = n.ok() ? *n : 0;
      const uint32_t each = len.ok() ? *len : 0;
      WireWriter table;
      table.put_u32(count);
      for (uint32_t i = 0; i < count; ++i) {
        table.put_u64(uint64_t(i) * each);
        table.put_u32(each);
      }
      Payload p(table.bytes());
      for (uint32_t i = 0; i < count; ++i) {
        FileExtent ext;
        ext.fd = shared_file();
        ext.offset = uint64_t(i) * each;
        ext.length = each;
        p.add_extent(std::move(ext));
      }
      return p;
    });
    if (!s->start().ok()) std::abort();
    return s;
  }();
  return *server;
}

void BM_SyncRoundTrip(benchmark::State& state) {
  RpcClient client(shared_server().endpoint());
  Bytes msg(64);
  for (auto _ : state) {
    auto resp = client.call(1, msg);
    if (!resp.ok()) state.SkipWithError("call failed");
  }
}
BENCHMARK(BM_SyncRoundTrip);

// BM_SyncRoundTrip with the client, the reactor and the handler pool
// on one CPU, as a reader and hvacd share a core on a node whose loader
// is confined to one. Each reactor wakeup is then a context switch
// away from the caller, so what a request frame costs in wakeups shows
// up in the latency; `split_frames` counts frames that needed more
// than one readiness event, per call. The client dials the server's
// bound address, which reaches it over the node-local alias, or with
// `tcp` as localhost:PORT, which names no alias and stays on TCP.
void sync_round_trip_one_cpu(benchmark::State& state, bool tcp) {
  cpu_set_t old;
  if (::sched_getaffinity(0, sizeof(old), &old) != 0) {
    state.SkipWithError("sched_getaffinity failed");
    return;
  }
  int cpu = 0;
  while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &old)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ::sched_setaffinity(0, sizeof(one), &one);  // threads started below inherit
  {
    RpcServer server(RpcServerOptions{"127.0.0.1:0", 2});
    server.register_handler(1, [](const Bytes& req) -> hvac::Result<Bytes> {
      Bytes out = req;
      return out;
    });
    if (!server.start().ok()) std::abort();
    Endpoint dial = server.endpoint();
    if (tcp) {
      dial.address = "localhost:" +
                     std::to_string(server.endpoint().host_port()->second);
    }
    RpcClient client(dial);
    Bytes msg(64);
    for (auto _ : state) {
      auto resp = client.call(1, msg);
      if (!resp.ok()) state.SkipWithError("call failed");
      benchmark::DoNotOptimize(resp);
    }
    state.counters["split_frames"] = benchmark::Counter(
        double(server.split_frames()), benchmark::Counter::kAvgIterations);
    state.counters["local_conns"] = double(server.reactor_stats().local_conns);
  }
  ::sched_setaffinity(0, sizeof(old), &old);
}

void BM_SyncRoundTripOneCpu(benchmark::State& state) {
  sync_round_trip_one_cpu(state, /*tcp=*/false);
}
BENCHMARK(BM_SyncRoundTripOneCpu);

void BM_SyncRoundTripOneCpuTcp(benchmark::State& state) {
  sync_round_trip_one_cpu(state, /*tcp=*/true);
}
BENCHMARK(BM_SyncRoundTripOneCpuTcp);

void BM_AsyncPipelined(benchmark::State& state) {
  AsyncRpcClient client(shared_server().endpoint());
  const size_t window = size_t(state.range(0));
  Bytes msg(64);
  for (auto _ : state) {
    std::vector<std::future<hvac::Result<Bytes>>> futures;
    futures.reserve(window);
    for (size_t i = 0; i < window; ++i) {
      futures.push_back(client.call_async(1, msg));
    }
    for (auto& f : futures) {
      if (!f.get().ok()) state.SkipWithError("call failed");
    }
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(window));
}
BENCHMARK(BM_AsyncPipelined)->Arg(1)->Arg(8)->Arg(64);

void BM_BulkRead(benchmark::State& state) {
  RpcClient client(shared_server().endpoint());
  WireWriter w;
  w.put_u32(uint32_t(state.range(0)));
  const Bytes req = w.bytes();
  for (auto _ : state) {
    auto resp = client.call(2, req);
    if (!resp.ok()) state.SkipWithError("call failed");
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_BulkRead)->Arg(64 << 10)->Arg(1 << 20)->Arg(4 << 20);

// Shared body for the zero-copy bulk reads: each benchmark thread is
// an independent client issuing bulk reads, the way N DataLoader
// workers hammer one HVAC server.
void bulk_read_payload(benchmark::State& state, uint16_t opcode) {
  RpcClient client(shared_server().endpoint());
  WireWriter w;
  w.put_u32(uint32_t(state.range(0)));
  const Bytes req = w.bytes();
  for (auto _ : state) {
    auto resp = client.call_payload(opcode, req);
    if (!resp.ok()) {
      state.SkipWithError("call failed");
      continue;
    }
    WireReader r(resp->data(), resp->size());
    auto view = r.get_blob_view();
    if (!view.ok() || view->size != size_t(state.range(0))) {
      state.SkipWithError("bad blob");
    }
    benchmark::DoNotOptimize(view->data);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}

// A bulk read with the response body sent straight from the kernel
// page cache (sendfile): the server stages zero payload bytes in user
// space.
void BM_BulkReadZeroCopy(benchmark::State& state) {
  bulk_read_payload(state, 4);
}
BENCHMARK(BM_BulkReadZeroCopy)
    ->Arg(64 << 10)
    ->Arg(1 << 20)
    ->Arg(4 << 20)
    ->Threads(8)
    ->UseRealTime();

// A read-ahead batch as one scatter response: n extents of 128 KiB in
// a single frame versus n separate round trips (BM_BulkReadZeroCopy at
// 128 KiB, n times).
void BM_ScatterRead(benchmark::State& state) {
  RpcClient client(shared_server().endpoint());
  const uint32_t n = uint32_t(state.range(0));
  const uint32_t each = 128 << 10;
  WireWriter w;
  w.put_u32(n);
  w.put_u32(each);
  const Bytes req = w.bytes();
  for (auto _ : state) {
    auto resp = client.call_payload(5, req);
    if (!resp.ok()) {
      state.SkipWithError("call failed");
      continue;
    }
    auto view = decode_scatter(resp->data(), resp->size());
    if (!view.ok() || view->extents.size() != n) {
      state.SkipWithError("bad scatter frame");
    }
    benchmark::DoNotOptimize(view->extents.data());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(n) *
                          int64_t(each));
}
BENCHMARK(BM_ScatterRead)->Arg(1)->Arg(4)->Arg(16);

// BM_BulkReadZeroCopy with tracing ON: every iteration roots a span
// (like a traced client read) and the RPC stack emits its usual span
// set, so the pair quantifies the *enabled* tracing tax. The untraced
// series above stays the bench_compare.py regression baseline — its
// only cost when HVAC_TRACE=0 is one relaxed load per site.
void BM_BulkReadZeroCopyTraced(benchmark::State& state) {
  hvac::trace::init_for_test(true, 1u << 15);
  RpcClient client(shared_server().endpoint());
  WireWriter w;
  w.put_u32(uint32_t(state.range(0)));
  const Bytes req = w.bytes();
  int64_t n = 0;
  for (auto _ : state) {
    hvac::trace::Span span("bench.read", uint64_t(state.range(0)));
    auto resp = client.call_payload(4, req);
    if (!resp.ok()) {
      state.SkipWithError("call failed");
      continue;
    }
    WireReader r(resp->data(), resp->size());
    auto view = r.get_blob_view();
    if (!view.ok() || view->size != size_t(state.range(0))) {
      state.SkipWithError("bad blob");
    }
    benchmark::DoNotOptimize(view->data);
    // One thread plays the metrics poller so rings don't sit full and
    // the push path (not the cheaper drop path) is what gets timed.
    if (state.thread_index() == 0 && (++n & 1023) == 0) {
      benchmark::DoNotOptimize(hvac::trace::drain().size());
    }
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
  if (state.thread_index() == 0) {
    benchmark::DoNotOptimize(hvac::trace::drain().size());
    hvac::trace::init_for_test(false, 0);
  }
}
BENCHMARK(BM_BulkReadZeroCopyTraced)
    ->Arg(64 << 10)
    ->Arg(1 << 20)
    ->Arg(4 << 20)
    ->Threads(8)
    ->UseRealTime();

// --- Telemetry-plane overhead ---------------------------------------
//
// BM_BulkReadZeroCopy with the telemetry plane ON, compressed to its
// cost centers: a collector thread ticking at the hvacd cadence
// (frame snapshot -> frame_delta -> ring push every 100 ms) and an
// OpenMetrics exporter scraped every 200 ms over loopback HTTP, with
// each scrape also encoding the ring — the kTimeSeries reply a
// `hvacctl top` poller triggers. Everything shares the benchmark's
// cores, so the series pair (plain vs Telemetry) is the enabled tax;
// scripts/bench_compare.py reads it as an advisory <=5% gate.

class TelemetryPlane {
 public:
  TelemetryPlane()
      : ring_(300),
        exporter_(0, [] { return live_frame(); }) {
    if (!exporter_.start().ok()) std::abort();
    collector_ = std::thread([this] { collect(); });
    scraper_ = std::thread([this] { scrape(); });
  }

  ~TelemetryPlane() {
    stop_.store(true, std::memory_order_relaxed);
    collector_.join();
    scraper_.join();
    exporter_.stop();
  }

 private:
  // The live sections this bench actually moves (buffer pool,
  // zero-copy sends) plus busy-server histograms and stall rows, so
  // snapshot/delta/encode/render cost what a loaded hvacd's do.
  static hvac::core::MetricsFrame live_frame() {
    hvac::core::MetricsFrame f;
    const hvac::BufferPool::Stats bp = hvac::BufferPool::global().stats();
    f.buffer_pool.leases = bp.hits + bp.misses + bp.unpooled;
    f.buffer_pool.pool_hits = bp.hits;
    f.buffer_pool.fallback_allocs = bp.misses + bp.unpooled;
    f.buffer_pool.recycled = bp.recycled;
    f.buffer_pool.dropped = bp.dropped;
    const ZeroCopyCounters& zc = ZeroCopyCounters::global();
    f.zerocopy.sendfile_sends =
        zc.sendfile_sends.load(std::memory_order_relaxed);
    f.zerocopy.sendfile_bytes =
        zc.sendfile_bytes.load(std::memory_order_relaxed);
    f.zerocopy.short_resumes =
        zc.short_resumes.load(std::memory_order_relaxed);
    for (uint16_t op : {hvac::proto::kOpen, hvac::proto::kRead,
                        hvac::proto::kClose, hvac::proto::kReadScatter}) {
      hvac::core::LatencySnapshot lat;
      lat.count = 100000;
      lat.total_ns = uint64_t{100000} * 20000;
      for (size_t b = 10; b < 22; ++b) lat.buckets[b] = lat.count / 12;
      f.op_latency[op] = lat;
    }
    f.stall.epochs = {{1, 4096, 5000000, 1000000, 2500000, 1000000,
                       400000, 100000}};
    return f;
  }

  void collect() {
    hvac::core::MetricsFrame prev = live_frame();
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      hvac::core::MetricsFrame cur = live_frame();
      hvac::core::TimeSeriesSample s;
      s.t_ms = hvac::trace::now_ns() / 1000000;
      s.interval_ms = 100;
      s.delta = hvac::core::frame_delta(cur, prev);
      ring_.push(std::move(s));
      prev = std::move(cur);
    }
  }

  void scrape() {
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      benchmark::DoNotOptimize(ring_.encode(100).size());
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) continue;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(exporter_.port());
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        const char req[] =
            "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n";
        (void)!::send(fd, req, sizeof(req) - 1, 0);
        char buf[4096];
        while (::recv(fd, buf, sizeof(buf), 0) > 0) {
        }
      }
      ::close(fd);
    }
  }

  hvac::core::TimeSeriesRing ring_;
  hvac::server::PromExporter exporter_;
  std::atomic<bool> stop_{false};
  std::thread collector_;
  std::thread scraper_;
};

TelemetryPlane* g_telemetry_plane = nullptr;
int g_telemetry_plane_refs = 0;
std::mutex g_telemetry_plane_mu;

void BM_BulkReadZeroCopyTelemetry(benchmark::State& state) {
  {
    std::lock_guard<std::mutex> lock(g_telemetry_plane_mu);
    if (g_telemetry_plane_refs++ == 0) {
      g_telemetry_plane = new TelemetryPlane();
    }
  }
  bulk_read_payload(state, 4);
  {
    std::lock_guard<std::mutex> lock(g_telemetry_plane_mu);
    if (--g_telemetry_plane_refs == 0) {
      delete g_telemetry_plane;
      g_telemetry_plane = nullptr;
    }
  }
}
BENCHMARK(BM_BulkReadZeroCopyTelemetry)
    ->Arg(64 << 10)
    ->Arg(1 << 20)
    ->Arg(4 << 20)
    ->Threads(8)
    ->UseRealTime();

// --- Saturated small reads ---------------------------------------
//
// 64 connections (8 bench threads x 8 async clients each) hammering
// one server with small reads (4-64 KiB, the DL-sample shape). The
// handler is an inline extent read, so the whole request lives on the
// reactor: what this measures is the server core itself — epoll,
// decode and the zero-copy send of one progress loop.

// Created on first use and kept for the binary's lifetime like
// shared_server().
RpcServer& saturated_server() {
  static RpcServer* server = [] {
    auto* s = new RpcServer(RpcServerOptions{"127.0.0.1:0"});
    s->register_payload_handler(
        4,
        [](const Bytes& req) -> hvac::Result<Payload> {
          WireReader r(req);
          auto n = r.get_u32();
          FileExtent ext;
          ext.fd = shared_file();
          ext.offset = 0;
          ext.length = n.ok() ? *n : 0;
          return blob_extent_payload(std::move(ext));
        },
        DispatchHint::kInline);
    if (!s->start().ok()) std::abort();
    return s;
  }();
  return *server;
}

void BM_SaturatedSmallReads(benchmark::State& state) {
  RpcServer& server = saturated_server();
  constexpr size_t kClientsPerThread = 8;
  static constexpr uint32_t kSizes[] = {4 << 10, 8 << 10, 16 << 10,
                                        32 << 10, 64 << 10};
  std::vector<std::unique_ptr<AsyncRpcClient>> clients;
  clients.reserve(kClientsPerThread);
  for (size_t i = 0; i < kClientsPerThread; ++i) {
    clients.push_back(std::make_unique<AsyncRpcClient>(server.endpoint()));
  }
  size_t cursor = size_t(state.thread_index());
  int64_t bytes = 0;
  for (auto _ : state) {
    std::vector<std::future<hvac::Result<Bytes>>> futures;
    futures.reserve(kClientsPerThread);
    for (auto& c : clients) {
      const uint32_t n = kSizes[cursor++ % (sizeof(kSizes) / sizeof(*kSizes))];
      WireWriter w;
      w.put_u32(n);
      futures.push_back(c->call_async(4, w.bytes()));
      bytes += n;
    }
    for (auto& f : futures) {
      if (!f.get().ok()) state.SkipWithError("call failed");
    }
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(kClientsPerThread));
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_SaturatedSmallReads)
    ->Threads(8)
    ->UseRealTime();

// --- Packed-container small reads ----------------------------------
//
// The small-file gate (FanStore-style packing): the legacy per-file
// protocol (kOpen + kRead + kClose per sample, three round trips and a
// server open(2) each, as raw-wire clients still send it) against the
// packed protocol (one kReadScatter by path; the server serves by
// offset out of an already-open container handle) and the client's
// stateless inline kOpen (one round trip, below). Both run against a REAL HvacServer over a real PFS tree at
// the DL-sample sizes. scripts/bench_compare.py pairs the two series
// as an advisory gate: packed must be >= 2x the per-file path.

struct SmallFileFixture {
  std::string pfs_root;
  std::string cache_root;
  std::unique_ptr<hvac::storage::PfsBackend> pfs;
  std::unique_ptr<hvac::server::HvacServer> server;
  std::vector<std::string> paths;  // logical sample paths

  SmallFileFixture(uint32_t file_bytes, bool packed) {
    const std::string tag = (packed ? "packed_" : "perfile_") +
                            std::to_string(file_bytes);
    pfs_root = "/tmp/hvac_bench_" + tag + "_pfs_" +
               std::to_string(::getpid());
    cache_root = "/tmp/hvac_bench_" + tag + "_cache_" +
                 std::to_string(::getpid());
    std::filesystem::remove_all(pfs_root);
    std::filesystem::remove_all(cache_root);
    const auto spec =
        hvac::workload::synthetic_small(128, file_bytes, 0.0);
    const auto tree = hvac::workload::generate_tree(pfs_root, spec);
    if (!tree.ok()) std::abort();
    paths = tree->relative_paths;
    if (packed) {
      hvac::storage::PackOptions po;
      po.container_bytes = 4 << 20;
      if (!hvac::storage::pack_tree(pfs_root, po).ok()) std::abort();
    }
    pfs = std::make_unique<hvac::storage::PfsBackend>(pfs_root);
    hvac::server::HvacServerOptions o;
    o.cache_dir = cache_root;
    o.rpc_handler_threads = 4;
    o.packed_enabled = packed;
    server = std::make_unique<hvac::server::HvacServer>(pfs.get(), o);
    if (!server->start().ok()) std::abort();
    // Pre-warm so the measured loop is the steady-state hit path.
    RpcClient warm(Endpoint{server->address()});
    for (const auto& p : paths) {
      WireWriter w;
      w.put_u32(1);
      w.put_string(p);
      if (!warm.call(hvac::proto::kPrefetchBatch, w).ok()) std::abort();
    }
  }
};

SmallFileFixture& small_file_fixture(uint32_t file_bytes, bool packed) {
  static std::mutex mu;
  static std::map<std::pair<uint32_t, bool>, SmallFileFixture*> fixtures;
  std::lock_guard<std::mutex> lock(mu);
  auto*& slot = fixtures[{file_bytes, packed}];
  if (slot == nullptr) slot = new SmallFileFixture(file_bytes, packed);
  return *slot;
}

// Per-file protocol: what every sample of an unpacked tree costs.
void BM_SmallFileReads(benchmark::State& state) {
  const uint32_t file_bytes = uint32_t(state.range(0));
  SmallFileFixture& f = small_file_fixture(file_bytes, /*packed=*/false);
  RpcClient client(Endpoint{f.server->address()});
  size_t cursor = 0;
  for (auto _ : state) {
    const std::string& path = f.paths[cursor++ % f.paths.size()];
    WireWriter open;
    open.put_string(path);
    const auto opened = client.call(hvac::proto::kOpen, open);
    if (!opened.ok()) { state.SkipWithError("open failed"); break; }
    WireReader r(*opened);
    const auto fd = r.get_u64();
    const auto size = r.get_u64();
    WireWriter read;
    read.put_u64(fd.ok() ? *fd : 0);
    read.put_u64(0);
    read.put_u32(uint32_t(size.ok() ? *size : 0));
    const auto data = client.call_payload(hvac::proto::kRead,
                                          read.bytes());
    if (!data.ok()) { state.SkipWithError("read failed"); break; }
    WireWriter close;
    close.put_u64(fd.ok() ? *fd : 0);
    if (!client.call(hvac::proto::kClose, close).ok()) {
      state.SkipWithError("close failed");
      break;
    }
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
  state.SetBytesProcessed(int64_t(state.iterations()) * file_bytes);
}
BENCHMARK(BM_SmallFileReads)
    ->ArgName("bytes")
    ->Arg(4 << 10)
    ->Arg(16 << 10)
    ->Arg(64 << 10)
    ->UseRealTime();

// Packed protocol: one scatter read by path per sample — the client
// resolved open/stat from its fetched index, so this ONE round trip
// is the whole per-sample cost.
void BM_PackedSmallReads(benchmark::State& state) {
  const uint32_t file_bytes = uint32_t(state.range(0));
  SmallFileFixture& f = small_file_fixture(file_bytes, /*packed=*/true);
  RpcClient client(Endpoint{f.server->address()});
  size_t cursor = 0;
  for (auto _ : state) {
    const std::string& path = f.paths[cursor++ % f.paths.size()];
    WireWriter w;
    w.put_u8(1);  // by path
    w.put_string(path);
    w.put_u32(1);
    w.put_u64(0);
    w.put_u32(file_bytes);
    const auto resp =
        client.call_payload(hvac::proto::kReadScatter, w.bytes());
    if (!resp.ok()) { state.SkipWithError("scatter read failed"); break; }
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
  state.SetBytesProcessed(int64_t(state.iterations()) * file_bytes);
}
BENCHMARK(BM_PackedSmallReads)
    ->ArgName("bytes")
    ->Arg(4 << 10)
    ->Arg(16 << 10)
    ->Arg(64 << 10)
    ->UseRealTime();

// Stateless per-file protocol: the HvacClient's one kOpen per sample,
// whose reply carries the bytes of a file up to kMaxInlineBytes —
// answered on the reactor for a cached copy. EOF is known from the
// size and close is client-local, so this ONE round trip is the whole
// per-sample cost, like the packed path but with no packing step.
void BM_SmallFileReadsInline(benchmark::State& state) {
  const uint32_t file_bytes = uint32_t(state.range(0));
  SmallFileFixture& f = small_file_fixture(file_bytes, /*packed=*/false);
  RpcClient client(Endpoint{f.server->address()});
  size_t cursor = 0;
  for (auto _ : state) {
    const std::string& path = f.paths[cursor++ % f.paths.size()];
    WireWriter w;
    w.put_string(path);
    w.put_u8(1);  // stateless
    const auto resp = client.call_payload(hvac::proto::kOpen, w.bytes());
    if (!resp.ok()) { state.SkipWithError("open failed"); break; }
    WireReader r(resp->data(), resp->size());
    (void)r.get_u64();
    const auto size = r.get_u64();
    (void)r.get_u8();
    const auto blob = r.get_blob_view();
    if (!size.ok() || !blob.ok() || blob->size != *size) {
      state.SkipWithError("bad inline reply");
      break;
    }
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
  state.SetBytesProcessed(int64_t(state.iterations()) * file_bytes);
}
BENCHMARK(BM_SmallFileReadsInline)
    ->ArgName("bytes")
    ->Arg(4 << 10)
    ->Arg(16 << 10)
    ->Arg(64 << 10)
    ->UseRealTime();

// --- Passed-fd bulk reads -----------------------------------------------
//
// One warm sample per iteration through the real HvacClient: open,
// read it front to back in 1 MiB reads, close. Dialled by its bound
// address the server is reached over its node-local alias, and the
// kOpen reply names the cache slab, passing a read-only fd on it the
// first time: every read is one pread and no RPC (DESIGN.md §20). The Tcp twin dials
// localhost:PORT, which names no alias, and reads over kReadScatter
// with read-ahead as a remote home would. `passed_fd_opens` per
// iteration tells the two paths apart.

struct BulkFileFixture {
  std::string pfs_root;
  std::unique_ptr<hvac::storage::PfsBackend> pfs;
  std::unique_ptr<hvac::server::HvacServer> server;
  std::string path;  // the sample, absolute

  explicit BulkFileFixture(uint32_t file_bytes) {
    const std::string tag = "bulkfd_" + std::to_string(file_bytes) + "_" +
                            std::to_string(::getpid());
    pfs_root = "/tmp/hvac_bench_" + tag + "_pfs";
    const std::string cache_root = "/tmp/hvac_bench_" + tag + "_cache";
    std::filesystem::remove_all(pfs_root);
    std::filesystem::remove_all(cache_root);
    const auto data = hvac::workload::expected_contents("s.bin", file_bytes);
    path = pfs_root + "/s.bin";
    if (!hvac::storage::write_file(path, data.data(), data.size()).ok()) {
      std::abort();
    }
    pfs = std::make_unique<hvac::storage::PfsBackend>(pfs_root);
    hvac::server::HvacServerOptions o;
    o.cache_dir = cache_root;
    server = std::make_unique<hvac::server::HvacServer>(pfs.get(), o);
    if (!server->start().ok()) std::abort();
    RpcClient warm(Endpoint{server->address()});
    WireWriter w;
    w.put_u32(1);
    w.put_string("s.bin");
    if (!warm.call(hvac::proto::kPrefetchBatch, w).ok()) std::abort();
  }
};

BulkFileFixture& bulk_file_fixture(uint32_t file_bytes) {
  static std::mutex mu;
  static std::map<uint32_t, BulkFileFixture*> fixtures;
  std::lock_guard<std::mutex> lock(mu);
  auto*& slot = fixtures[file_bytes];
  if (slot == nullptr) slot = new BulkFileFixture(file_bytes);
  return *slot;
}

void bulk_read_sample(benchmark::State& state, bool tcp,
                      size_t read_bytes = 1 << 20) {
  const uint32_t file_bytes = uint32_t(state.range(0));
  BulkFileFixture& f = bulk_file_fixture(file_bytes);
  hvac::client::HvacClientOptions o;
  o.dataset_dir = f.pfs_root;
  o.server_endpoints = {f.server->address()};
  if (tcp) {
    o.server_endpoints[0] =
        "localhost:" +
        std::to_string(Endpoint{f.server->address()}.host_port()->second);
  }
  o.meta_ttl_ms = 0;  // every open is a kOpen, as on a first epoch
  o.allow_pfs_fallback = false;
  hvac::client::HvacClient client(o);
  std::vector<uint8_t> buf(read_bytes);
  for (auto _ : state) {
    const auto vfd = client.open(f.path);
    if (!vfd.ok()) { state.SkipWithError("open failed"); break; }
    uint64_t got = 0;
    for (;;) {
      const auto n = client.read(*vfd, buf.data(), buf.size());
      if (!n.ok()) { state.SkipWithError("read failed"); break; }
      if (*n == 0) break;
      got += *n;
      benchmark::DoNotOptimize(buf.data());
      benchmark::ClobberMemory();
    }
    if (!client.close(*vfd).ok() || got != file_bytes) {
      state.SkipWithError("short sample");
      break;
    }
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * file_bytes);
  state.counters["passed_fd_opens"] =
      benchmark::Counter(double(client.stats().passed_fd_opens),
                         benchmark::Counter::kAvgIterations);
}

void BM_BulkReadPassedFd(benchmark::State& state) {
  bulk_read_sample(state, /*tcp=*/false);
}
BENCHMARK(BM_BulkReadPassedFd)
    ->ArgName("bytes")
    ->Arg(1 << 20)
    ->Arg(4 << 20)
    ->UseRealTime();

void BM_BulkReadPassedFdTcp(benchmark::State& state) {
  bulk_read_sample(state, /*tcp=*/true);
}
BENCHMARK(BM_BulkReadPassedFdTcp)
    ->ArgName("bytes")
    ->Arg(1 << 20)
    ->Arg(4 << 20)
    ->UseRealTime();

// A warm_small sample: open, 8 KiB reads and close of a cached 16 KiB
// file over the alias. The kOpen names the slab, whose fd the client
// took on the first open; the reads are preads on it.
void BM_LocalSmallOpen(benchmark::State& state) {
  bulk_read_sample(state, /*tcp=*/false, /*read_bytes=*/8 << 10);
}
BENCHMARK(BM_LocalSmallOpen)->ArgName("bytes")->Arg(16 << 10)->UseRealTime();

// A seq_ckpt checkpoint shard through HvacClient over the alias:
// open_write, 4 x 1 MiB write, fsync and close. The writes are pwrites
// into the fd the kWriteOpen reply passed, so a shard costs three RPCs;
// the close queues the file's one PFS copy.
void BM_CheckpointShard(benchmark::State& state) {
  constexpr size_t kWrite = 1 << 20;
  BulkFileFixture& f = bulk_file_fixture(1 << 20);
  hvac::client::HvacClientOptions o;
  o.dataset_dir = f.pfs_root;
  o.server_endpoints = {f.server->address()};
  o.allow_pfs_fallback = false;
  hvac::client::HvacClient client(o);
  const std::vector<uint8_t> buf(kWrite, 0x5A);
  const std::string path = f.pfs_root + "/ckpt/shard.bin";
  for (auto _ : state) {
    const auto vfd = client.open_write(path, /*trunc=*/true);
    if (!vfd.ok()) { state.SkipWithError("open_write failed"); break; }
    bool ok = true;
    for (int i = 0; i < 4 && ok; ++i) {
      const auto n = client.write(*vfd, buf.data(), buf.size());
      ok = n.ok() && *n == buf.size();
    }
    ok = ok && client.fsync(*vfd).ok();
    if (!client.close(*vfd).ok() || !ok) {
      state.SkipWithError("shard write failed");
      break;
    }
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * 4 * kWrite);
}
BENCHMARK(BM_CheckpointShard)->UseRealTime();

// --- Clairvoyant epoch reads ----------------------------------------
//
// One COLD training epoch per iteration: a fresh server (empty cache)
// over a congested-PFS model, a fresh client, one pass over every
// sample front to back. Three variants of the same pass:
//
//   Demand       no prefetch of any kind (the seed behaviour)
//   ReadAhead    sequential read-ahead inside each file — it cannot
//                cross file boundaries, so every file still pays the
//                cold PFS fetch in line
//   Clairvoyant  the epoch plan is handed to the scheduler up front;
//                fetches run ahead of the cursor on the mover threads
//                and overlap with the foreground reads
//
// scripts/bench_compare.py reads the three series as an advisory
// gate: clairvoyant must beat read-ahead by >= 1.5x on the cold
// epoch.

struct EpochTree {
  std::string pfs_root;
  std::vector<std::string> abs_paths;
};

EpochTree& epoch_tree() {
  static EpochTree* tree = [] {
    auto* e = new EpochTree;
    e->pfs_root =
        "/tmp/hvac_bench_epoch_pfs_" + std::to_string(::getpid());
    std::filesystem::remove_all(e->pfs_root);
    const auto spec =
        hvac::workload::synthetic_small(64, 128 << 10, 0.0);
    const auto t = hvac::workload::generate_tree(e->pfs_root, spec);
    if (!t.ok()) std::abort();
    for (const auto& rel : t->relative_paths) {
      e->abs_paths.push_back(e->pfs_root + "/" + rel);
    }
    return e;
  }();
  return *tree;
}

void epoch_read(benchmark::State& state, int mode) {
  EpochTree& tree = epoch_tree();
  size_t serial = 0;
  for (auto _ : state) {
    state.PauseTiming();
    hvac::storage::PfsOptions pfs_options;
    pfs_options.metadata_latency_us = 400;  // busy-MDS model
    pfs_options.seed = 42 + serial;
    hvac::storage::PfsBackend pfs(tree.pfs_root, pfs_options);
    const std::string cache = "/tmp/hvac_bench_epoch_cache_" +
                              std::to_string(::getpid()) + "_" +
                              std::to_string(serial++);
    std::filesystem::remove_all(cache);
    hvac::server::HvacServerOptions so;
    so.cache_dir = cache;
    so.rpc_handler_threads = 4;
    so.data_mover_threads = 4;
    auto server =
        std::make_unique<hvac::server::HvacServer>(&pfs, so);
    if (!server->start().ok()) std::abort();
    hvac::client::HvacClientOptions copts;
    copts.dataset_dir = tree.pfs_root;
    copts.server_endpoints = {server->address()};
    copts.read_chunk_bytes = 32 << 10;
    copts.readahead_chunks = mode == 0 ? 0 : 4;
    if (mode == 2) copts.prefetch_depth = 64;
    auto client = std::make_unique<hvac::client::HvacClient>(copts);
    state.ResumeTiming();

    if (mode == 2) client->set_access_plan(tree.abs_paths);
    std::vector<uint8_t> buf(32 << 10);
    for (const auto& path : tree.abs_paths) {
      auto fd = client->open(path);
      if (!fd.ok()) { state.SkipWithError("open failed"); break; }
      for (;;) {
        auto n = client->read(*fd, buf.data(), buf.size());
        if (!n.ok()) { state.SkipWithError("read failed"); break; }
        if (*n == 0) break;
      }
      (void)client->close(*fd);
    }

    state.PauseTiming();
    client.reset();  // joins the scheduler before the server dies
    server->stop();
    server.reset();
    std::filesystem::remove_all(cache);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(tree.abs_paths.size()));
  state.SetBytesProcessed(int64_t(state.iterations()) *
                          int64_t(tree.abs_paths.size()) * (128 << 10));
}

void BM_EpochReadDemand(benchmark::State& state) {
  epoch_read(state, 0);
}
BENCHMARK(BM_EpochReadDemand)->UseRealTime();

void BM_EpochReadReadAhead(benchmark::State& state) {
  epoch_read(state, 1);
}
BENCHMARK(BM_EpochReadReadAhead)->UseRealTime();

void BM_EpochReadClairvoyant(benchmark::State& state) {
  epoch_read(state, 2);
}
BENCHMARK(BM_EpochReadClairvoyant)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
