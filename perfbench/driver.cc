// Live end-to-end benchmark driver. It generates a workload's dataset
// from the seed, hosts one HVAC server (server::NodeRuntime, the object
// hvacd wraps) and runs each epoch as a fresh perfbench_reader process,
// once under LD_PRELOAD=libhvac_intercept.so and once direct, checking
// every sample against the generated manifest and every checkpoint
// shard against its expected bytes on the PFS.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --work DIR [--smoke] [--git-sha SHA]
//                    [--fault stopped-server|pfs-fallback]
//
// --trace 0 prints the end-to-end metrics; --trace 1 replays the same
// workload and seed once per layer boundary (shim, HvacClient, raw RPC,
// storage/core against a fresh store) and prints the per-layer metrics.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. --fault points the shim at a stopped server, for the
// benchmark's own tests of its correctness gate.
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "client/hvac_client.h"
#include "common.h"
#include "core/cache_manager.h"
#include "core/data_mover.h"
#include "core/eviction.h"
#include "core/flush_manager.h"
#include "rpc/rpc_client.h"
#include "rpc/wire.h"
#include "server/hvac_proto.h"
#include "server/node_runtime.h"
#include "storage/local_store.h"
#include "storage/packed_format.h"
#include "storage/packed_store.h"
#include "storage/pfs_backend.h"
#include "storage/write_journal.h"
#include "workload/file_tree.h"

extern char** environ;

namespace {

namespace fs = std::filesystem;
using namespace hvac;
using perfbench::now_ns;

// ---- workloads -------------------------------------------------------------

struct Workload {
  std::string name;
  uint64_t files = 0;
  uint64_t mean_bytes = 0;
  double sigma = 0.35;   // gentree's default spread
  uint64_t read_bytes = 8192;
  bool packed = false;   // hvacctl pack, originals deleted
  bool cold = false;     // throttled PFS, fresh server every epoch
  uint64_t ckpt_every = 0;  // samples between checkpoint shards
  uint64_t ckpt_bytes = 0;
  uint64_t ckpt_write = 1 << 20;
  int setup_reps = 3;    // server start + warm-up epochs timed per run
};

bool make_workload(const std::string& name, bool smoke, Workload* w) {
  w->name = name;
  if (name == "warm_small" || name == "warm_packed") {
    w->files = smoke ? 256 : 4096;
    w->mean_bytes = 16384;
    w->packed = name == "warm_packed";
  } else if (name == "cold_pfs") {
    w->files = smoke ? 64 : 1024;
    w->mean_bytes = smoke ? 65536 : 262144;
    w->read_bytes = 65536;
    w->cold = true;
  } else if (name == "seq_ckpt") {
    w->files = smoke ? 4 : 16;
    w->mean_bytes = smoke ? (1u << 20) : (16u << 20);
    w->sigma = 0.1;
    w->read_bytes = smoke ? (64u << 10) : (1u << 20);
    w->ckpt_every = 2;
    w->ckpt_bytes = smoke ? (256u << 10) : (4u << 20);
    w->ckpt_write = smoke ? (64u << 10) : (1u << 20);
  } else {
    return false;
  }
  if (smoke) w->setup_reps = std::min(w->setup_reps, 1);
  return true;
}

// ---- small statistics --------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Mean time per call of one timed operation.
struct OpTimer {
  uint64_t count = 0;
  uint64_t ns = 0;
  void add(uint64_t d) {
    ++count;
    ns += d;
  }
  double mean_us() const { return count ? double(ns) / count / 1e3 : 0.0; }
  double mean_ms() const { return count ? double(ns) / count / 1e6 : 0.0; }
};

// A traced pass's time per call over several rounds: the lowest of its
// per-round means, because outside noise on a shared machine only adds
// time and comes in bursts that can cover a whole epoch. The count is
// that of all rounds.
OpTimer quiet(const std::vector<OpTimer>& rounds) {
  OpTimer best;
  uint64_t count = 0;
  for (const OpTimer& t : rounds) {
    count += t.count;
    if (t.count && (best.count == 0 || t.mean_us() < best.mean_us())) best = t;
  }
  const double mean_ns = best.count ? double(best.ns) / best.count : 0.0;
  return OpTimer{count, uint64_t(mean_ns * count)};
}

template <typename Fn>
auto time_into(OpTimer& t, Fn&& fn) {
  const uint64_t t0 = now_ns();
  auto r = fn();
  t.add(now_ns() - t0);
  return r;
}

// ---- metric sink -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t count = 0;  // samples / calls behind the value (0 = n/a)
};

struct Report {
  std::vector<Metric> metrics;
  void add(const std::string& name, double value, const std::string& unit,
           uint64_t count = 0) {
    metrics.push_back({name, value, unit, count});
  }
  const Metric* find(const std::string& name) const {
    for (const auto& m : metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
};

// Metric names BENCHMARK.json lists; every run prints exactly these.
const char* const kEndToEnd[] = {"overhead_x", "setup_s", "reader_rss_MB",
                                 "server_rss_MB"};
const char* const kPerLayer[] = {
    "intercept.open_us",      "intercept.fstat_us",
    "intercept.lseek_us",     "intercept.read_us",
    "intercept.close_us",     "intercept.calls_per_sample",
    "client.open_us",         "client.read_us",
    "client.close_us",        "rpc.read_us",
    "rpc.calls_per_sample",   "server.handler_read_us",
    "server.cache_hit_ratio", "core.mover_fetch_ms",
    "storage.local_read_us",  "storage.pfs_open_us",
    "storage.pfs_copy_ms",    "stall.remote_rpc_s",
    "trace.overhead_ratio"};

// ---- dataset -----------------------------------------------------------------

struct Sample {
  std::string rel;
  uint64_t size = 0;
  uint64_t fnv = 0;
};

struct Dataset {
  std::string pfs;          // HVAC_DATASET_DIR (the PFS mount)
  std::string direct_root;  // tree the direct pass reads
  std::vector<Sample> samples;
  uint64_t digest = perfbench::kFnvBasis;
  std::unique_ptr<storage::PackedStore> packed;
};

uint64_t fnv_str(const std::string& s, uint64_t h) {
  return perfbench::fnv1a(reinterpret_cast<const uint8_t*>(s.data()),
                          s.size(), h);
}

bool generate(const Workload& w, uint64_t seed, const std::string& work,
              Dataset* ds) {
  ds->pfs = work + "/pfs";
  ds->direct_root = ds->pfs;
  const workload::DatasetSpec spec =
      workload::synthetic_small(w.files, w.mean_bytes, w.sigma);
  auto tree = workload::generate_tree(ds->pfs, spec, seed);
  if (!tree.ok()) {
    std::fprintf(stderr, "gentree: %s\n", tree.error().to_string().c_str());
    return false;
  }
  for (size_t i = 0; i < tree->relative_paths.size(); ++i) {
    Sample s{tree->relative_paths[i], tree->sizes[i], 0};
    const std::vector<uint8_t> data = workload::expected_contents(s.rel, s.size);
    s.fnv = perfbench::fnv1a(data.data(), data.size(), perfbench::kFnvBasis);
    ds->digest = fnv_str(s.rel + " " + std::to_string(s.size) + " " +
                             std::to_string(s.fnv) + "\n",
                         ds->digest);
    ds->samples.push_back(std::move(s));
  }
  if (w.packed) {
    // The direct pass needs plain files: keep an unpacked copy beside
    // the PFS, then pack the PFS tree and delete its originals.
    ds->direct_root = work + "/direct";
    if (!workload::generate_tree(ds->direct_root, spec, seed).ok()) return false;
    auto report = storage::pack_tree(ds->pfs);
    if (!report.ok()) {
      std::fprintf(stderr, "pack: %s\n", report.error().to_string().c_str());
      return false;
    }
    for (const Sample& s : ds->samples) fs::remove(ds->pfs + "/" + s.rel);
    auto store = storage::PackedStore::load(ds->pfs);
    if (!store.ok()) return false;
    ds->packed = std::move(store).value();
  }
  fs::create_directories(ds->pfs + "/ckpt");
  return true;
}

// Epoch `epoch`'s access order: a seeded Fisher-Yates shuffle.
std::vector<size_t> epoch_order(size_t n, uint64_t seed, uint64_t epoch) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  uint64_t state = perfbench::splitmix64(seed * 0x100000001b3ULL + epoch);
  for (size_t i = n; i > 1; --i) {
    state = perfbench::splitmix64(state);
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

// ---- checkpoint shards ---------------------------------------------------------

uint64_t shard_key(uint64_t seed, uint64_t epoch, char pass) {
  return perfbench::splitmix64(seed ^ (epoch << 20) ^ uint64_t(pass) << 40);
}

std::string shard_rel(char pass, uint64_t epoch) {
  return "ckpt/" + std::string(1, pass) + std::to_string(epoch) + "_";
}

// Byte-compares shards 0..count-1 of `prefix` (absolute) with their
// expected contents and deletes them; returns the mismatches.
uint64_t verify_shards(const std::string& prefix, uint64_t key,
                       uint64_t count, uint64_t bytes) {
  uint64_t bad = 0;
  std::vector<uint8_t> want(bytes);
  for (uint64_t k = 0; k < count; ++k) {
    const std::string path = prefix + std::to_string(k);
    perfbench::fill_shard(key + k, want.data(), want.size());
    auto got = storage::read_file(path);
    if (!got.ok() || *got != want) {
      ++bad;
      std::fprintf(stderr, "checkpoint mismatch: %s\n", path.c_str());
    }
    fs::remove(path);
  }
  return bad;
}

// ---- reader processes ----------------------------------------------------------

struct EpochResult {
  uint64_t epoch_ns = 0;
  uint64_t last_close_ns = 0;
  std::vector<uint64_t> sample_ns;
  uint64_t bytes = 0;
  uint64_t read_ns = 0;
  std::vector<double> ckpt_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, OpTimer> ops;  // trace pass only
  double rss_mb = 0;
};

struct ReaderJob {
  std::vector<std::string> paths;  // absolute, access order
  const std::vector<Sample>* expect = nullptr;
  const std::vector<size_t>* order = nullptr;
  const Workload* w = nullptr;
  std::string ckpt_prefix;  // absolute; empty = no checkpoints
  uint64_t ckpt_key = 0;
  bool trace = false;
  std::vector<std::string> env;  // extra environment (shim pass)
};

std::vector<std::string> base_env() {
  std::vector<std::string> out;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("LD_PRELOAD=", 0) == 0 || kv.rfind("HVAC_", 0) == 0) continue;
    out.push_back(kv);
  }
  return out;
}

// Runs one reader process to completion (SIGKILL after 150 s).
bool spawn_reader(const std::vector<std::string>& argv,
                  const std::vector<std::string>& env) {
  std::vector<char*> av, ev;
  for (const auto& a : argv) av.push_back(const_cast<char*>(a.c_str()));
  av.push_back(nullptr);
  for (const auto& e : env) ev.push_back(const_cast<char*>(e.c_str()));
  ev.push_back(nullptr);
  pid_t pid = 0;
  if (::posix_spawn(&pid, av[0], nullptr, nullptr, av.data(), ev.data()) != 0) {
    return false;
  }
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(150), [&] { return done; })) {
      ::kill(pid, SIGKILL);
    }
  });
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  watchdog.join();
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

EpochResult run_reader(const ReaderJob& job, const std::string& work,
                       const std::string& tag) {
  EpochResult r;
  const std::string job_path = work + "/job_" + tag;
  const std::string out_path = work + "/out_" + tag;
  {
    std::ofstream f(job_path);
    f << "read_bytes " << job.w->read_bytes << "\n";
    f << "trace " << (job.trace ? 1 : 0) << "\n";
    if (!job.ckpt_prefix.empty()) {
      f << "ckpt_every " << job.w->ckpt_every << "\n";
      f << "ckpt_bytes " << job.w->ckpt_bytes << "\n";
      f << "ckpt_write " << job.w->ckpt_write << "\n";
      f << "ckpt_key " << job.ckpt_key << "\n";
      f << "ckpt_prefix " << job.ckpt_prefix << "\n";
    }
    for (const auto& p : job.paths) f << "s " << p << "\n";
  }
  std::vector<std::string> env = base_env();
  env.insert(env.end(), job.env.begin(), job.env.end());
  r.attempted = job.paths.size();
  if (!spawn_reader({PERFBENCH_READER, job_path, out_path}, env)) {
    std::fprintf(stderr, "reader %s failed\n", tag.c_str());
    r.failed = r.attempted;
    return r;
  }
  std::ifstream in(out_path);
  std::string kind;
  size_t next = 0;
  while (in >> kind) {
    if (kind == "s" || kind == "e") {
      const Sample* want =
          next < job.order->size() ? &(*job.expect)[(*job.order)[next]] : nullptr;
      ++next;
      if (kind == "e") {
        std::string path, what;
        in >> path >> what;
        std::fprintf(stderr, "reader error: %s %s\n", path.c_str(), what.c_str());
        ++r.failed;
        continue;
      }
      uint64_t size = 0, lat = 0, read_ns = 0;
      std::string hex;
      in >> size >> hex >> lat >> read_ns;
      const uint64_t fnv = std::strtoull(hex.c_str(), nullptr, 16);
      if (want == nullptr || size != want->size || fnv != want->fnv) {
        std::fprintf(stderr, "sample mismatch: %s\n",
                     want ? want->rel.c_str() : "?");
        ++r.failed;
      }
      r.sample_ns.push_back(lat);
      r.bytes += size;
      r.read_ns += read_ns;
    } else if (kind == "c") {
      uint64_t ns = 0;
      in >> ns;
      r.ckpt_ms.push_back(double(ns) / 1e6);
    } else if (kind == "epoch_ns") {
      in >> r.epoch_ns;
    } else if (kind == "last_close_ns") {
      in >> r.last_close_ns;
    } else if (kind == "rss_kb") {
      in >> r.rss_mb;
      r.rss_mb /= 1024.0;
    } else if (kind == "op") {
      std::string name;
      OpTimer t;
      in >> name >> t.count >> t.ns;
      r.ops[name] = t;
    } else {
      std::string rest;
      std::getline(in, rest);
    }
  }
  if (next != job.paths.size()) {
    r.failed += job.paths.size() - std::min(next, job.paths.size());
  }
  fs::remove(job_path);
  fs::remove(out_path);
  return r;
}

// ---- JSON scraping of the shim's HVAC_STATS_FILE -------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Sum of every `"key":<number>` inside the object `"section":{...}`
// (nested rows included); the whole document when `section` is empty.
double json_sum(const std::string& json, const std::string& section,
                const std::string& key) {
  size_t pos = 0, end = json.size();
  if (!section.empty()) {
    pos = json.find("\"" + section + "\":{");
    if (pos == std::string::npos) return 0;
    int depth = 0;
    for (end = json.find('{', pos); end < json.size(); ++end) {
      if (json[end] == '{') ++depth;
      if (json[end] == '}' && --depth == 0) break;
    }
  }
  double total = 0;
  const std::string needle = "\"" + key + "\":";
  while ((pos = json.find(needle, pos)) != std::string::npos && pos < end) {
    pos += needle.size();
    total += std::strtod(json.c_str() + pos, nullptr);
  }
  return total;
}

// Writes back everything dirty on the scratch filesystem (the generated
// tree, warmed cache copies), so no timed phase pays for earlier writes.
void sync_fs(const std::string& dir) {
  if (const int fd = ::open(dir.c_str(), O_RDONLY); fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

// ---- CPU placement ---------------------------------------------------------------

// The CPUs this process may run on, highest first.
std::vector<int> allowed_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> out;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return out;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) out.push_back(cpu);
  }
  return out;
}

// ---- the server ----------------------------------------------------------------

struct Server {
  std::unique_ptr<server::NodeRuntime> rt;
  std::string cache_dir;
};

storage::PfsOptions pfs_options(const Workload& w) {
  return w.cold ? storage::gpfs_like_options() : storage::PfsOptions{};
}

// Starts a fresh server over an empty cache; returns start-to-ready
// seconds (ready = first kPing answered). A server that cannot start
// ends the run with an error.
double start_server(const Workload& w, const Dataset& ds,
                    const std::string& cache_dir, Server* s) {
  fs::remove_all(cache_dir);
  s->cache_dir = cache_dir;
  const uint64_t t0 = now_ns();
  server::NodeRuntimeOptions o;
  o.pfs_root = ds.pfs;
  o.pfs_options = pfs_options(w);
  o.cache_root = cache_dir;
  s->rt = std::make_unique<server::NodeRuntime>(o);
  const Status started = s->rt->start();
  rpc::RpcClient ping(rpc::Endpoint{s->rt->endpoints().at(0)});
  if (!started.ok() || !ping.call(proto::kPing, rpc::Bytes{}).ok()) {
    std::fprintf(stderr, "server failed to start\n");
    std::exit(1);
  }
  return double(now_ns() - t0) / 1e9;
}

void stop_server(Server* s) {
  if (s->rt) s->rt->stop();
  s->rt.reset();
  fs::remove_all(s->cache_dir);
}

core::MetricsFrame frame_of(Server& s) { return s.rt->aggregated_frame(); }

// Waits until the write-back tier holds nothing unflushed.
void wait_flushed(server::NodeRuntime& rt) {
  const uint64_t give_up = now_ns() + 60'000'000'000ULL;
  for (;;) {
    const core::WriteBackStats wb = rt.aggregated_frame().write_back;
    if ((wb.dirty_files == 0 && wb.flush_queue_depth == 0 &&
         wb.flush_inflight == 0) ||
        now_ns() > give_up) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

// Server-side counters between two frames of one epoch (or pass).
struct FrameDelta {
  std::map<uint16_t, std::pair<uint64_t, uint64_t>> ops;  // count, ns
  uint64_t hits = 0, misses = 0;
  uint64_t hc_hits = 0, hc_misses = 0;
  uint64_t sendfile_bytes = 0, served_bytes = 0;
  uint64_t steals = 0, shed = 0, dedup = 0;
  uint64_t pfs_meta = 0, pfs_read = 0, pfs_written = 0;

  void add(const core::MetricsFrame& a, const core::MetricsFrame& b) {
    for (const auto& [op, snap] : b.op_latency) {
      uint64_t c = snap.count, ns = snap.total_ns;
      if (auto it = a.op_latency.find(op); it != a.op_latency.end()) {
        c -= it->second.count;
        ns -= it->second.total_ns;
      }
      ops[op].first += c;
      ops[op].second += ns;
    }
    hits += b.cache.hits - a.cache.hits;
    misses += b.cache.misses - a.cache.misses;
    hc_hits += b.handle_cache.hits - a.handle_cache.hits;
    hc_misses += b.handle_cache.misses - a.handle_cache.misses;
    sendfile_bytes += b.zerocopy.sendfile_bytes - a.zerocopy.sendfile_bytes;
    served_bytes += (b.cache.bytes_from_cache + b.cache.bytes_from_pfs) -
                    (a.cache.bytes_from_cache + a.cache.bytes_from_pfs);
    for (size_t i = 0; i < b.reactor.reactors.size(); ++i) {
      const auto& rb = b.reactor.reactors[i];
      const bool has_a = i < a.reactor.reactors.size();
      steals += rb.steals - (has_a ? a.reactor.reactors[i].steals : 0);
      shed += rb.shed - (has_a ? a.reactor.reactors[i].shed : 0);
    }
    dedup += b.prefetch.deduped - a.prefetch.deduped;
  }
  double mean_us(std::initializer_list<uint16_t> which, uint64_t* count) const {
    uint64_t c = 0, ns = 0;
    for (uint16_t op : which) {
      if (auto it = ops.find(op); it != ops.end()) {
        c += it->second.first;
        ns += it->second.second;
      }
    }
    *count = c;
    return c ? double(ns) / c / 1e3 : 0.0;
  }
};

// ---- the benchmark ---------------------------------------------------------------

// Per-op timings of the traced mode's client/rpc and storage passes.
struct LayerTimes {
  OpTimer open, read, close, write, fsync, sample, open_write;
};

struct StorageTimes {
  OpTimer fetch, local_read, pfs_open, pfs_copy, journal_commit, flush;
};

struct Bench {
  Workload w;
  uint64_t seed = 0;
  double seconds = 10;
  bool smoke = false;
  std::string work;
  Dataset ds;
  Server srv;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int reader_runs = 0;
  // Test-only fault: shim epochs talk to a stopped server, with the
  // PFS fallback off ("stopped-server") or on ("pfs-fallback").
  std::string fault;
  std::string dead_endpoints;
  // CPUs that server instances take turns on; empty = not confined.
  std::vector<int> cpus;

  // Confines the driver's main thread, and so every server thread and
  // reader it starts from now on, to the k-th of `cpus` (round robin).
  // On one CPU an RPC round trip is two context switches there, not a
  // wake-up of another vCPU, which on a host with CPU steal may be idle
  // and descheduled: steal then slows an epoch in proportion, not
  // several-fold. Server instances move round the CPUs, so a run is not
  // at the mercy of where the host placed a single vCPU.
  void pin(uint64_t k) {
    if (cpus.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[k % cpus.size()], &one);
    ::sched_setaffinity(0, sizeof(one), &one);
  }

  std::vector<size_t> order(uint64_t epoch) const {
    return epoch_order(ds.samples.size(), seed, epoch);
  }

  // HVAC_SERVERS for the shim: the live server, or under a fault the
  // endpoints of a server that was started and stopped again.
  std::string servers_csv() {
    if (fault.empty()) return srv.rt->endpoints_csv();
    if (dead_endpoints.empty()) {
      Server dead;
      start_server(w, ds, work + "/dead_cache", &dead);
      dead_endpoints = dead.rt->endpoints_csv();
      stop_server(&dead);
    }
    return dead_endpoints;
  }

  // A reader job over `ord`. Shim jobs run the client's defaults
  // (read-ahead, and on cold_pfs the epoch's order as the prefetch
  // plan) unless `demand` asks for the plain demand protocol: no
  // read-ahead, no plan. The PFS fallback is off (except under the
  // pfs-fallback fault), so an open or read HVAC fails is a reader
  // error, not a silent PFS read.
  ReaderJob job(const std::vector<size_t>& ord, bool shim, uint64_t epoch,
                char pass, bool demand = false) {
    ReaderJob j;
    j.w = &w;
    j.expect = &ds.samples;
    j.order = &ord;
    const std::string& root = shim ? ds.pfs : ds.direct_root;
    for (size_t i : ord) j.paths.push_back(root + "/" + ds.samples[i].rel);
    if (w.ckpt_every > 0 && epoch > 0) {
      j.ckpt_prefix = ds.pfs + "/" + shard_rel(pass, epoch);
      j.ckpt_key = shard_key(seed, epoch, pass);
    }
    if (shim) {
      const std::string tag = std::to_string(reader_runs);
      j.env = {std::string("LD_PRELOAD=") + PERFBENCH_SHIM,
               "HVAC_DATASET_DIR=" + ds.pfs,
               "HVAC_SERVERS=" + servers_csv(),
               "HVAC_STATS_FILE=" + work + "/stats_" + tag + ".json"};
      if (fault != "pfs-fallback") j.env.push_back("HVAC_PFS_FALLBACK=0");
      if (demand) {
        j.env.push_back("HVAC_READAHEAD=0");
      } else if (w.cold) {
        const std::string plan = work + "/plan_" + tag;
        std::ofstream f(plan);
        for (const auto& p : j.paths) f << p << "\n";
        j.env.push_back("HVAC_PREFETCH_PLAN=" + plan);
      }
    }
    return j;
  }

  // True when HVAC itself served a shim epoch: the shim was active and
  // never fell back to the PFS, and the server saw one open per sample
  // (packed: one path-mode scatter read per sample) and one write open
  // per shard. Correct bytes alone do not show this, because a client
  // that falls back reads the same bytes straight from the PFS.
  bool served_by_hvac(const ReaderJob& j, const FrameDelta& d,
                      const std::string& stats, uint64_t shards) const {
    auto count = [&](uint16_t op) {
      auto it = d.ops.find(op);
      return it == d.ops.end() ? uint64_t(0) : it->second.first;
    };
    const uint64_t per_sample = count(w.packed ? proto::kReadScatter : proto::kOpen);
    return stats.find("\"opens\":") != std::string::npos &&
           json_sum(stats, "", "fallback_opens") == 0 &&
           json_sum(stats, "", "fallback_write_opens") == 0 &&
           per_sample >= j.paths.size() && count(proto::kWriteOpen) >= shards;
  }

  // One reader epoch; checkpoint shards are verified (after the flush
  // drain on the shim pass) and deleted. A shim epoch that HVAC did not
  // serve counts every one of its operations as failed. `drain_s` gets
  // the time from the last shard's close until the PFS held every
  // shard; `delta` accumulates the server's counters over the epoch.
  EpochResult epoch_run(const ReaderJob& j, bool shim, double* drain_s,
                        std::string* stats_json, FrameDelta* delta = nullptr) {
    const std::string tag = std::to_string(reader_runs++);
    const core::MetricsFrame f0 = shim ? frame_of(srv) : core::MetricsFrame{};
    EpochResult r = run_reader(j, work, tag);
    const uint64_t shards =
        j.ckpt_prefix.empty() ? 0 : j.paths.size() / w.ckpt_every;
    if (shards) {
      if (shim) {
        wait_flushed(*srv.rt);
        if (drain_s && r.last_close_ns) {
          *drain_s = double(now_ns() - r.last_close_ns) / 1e9;
        }
      }
      r.attempted += shards;
      r.failed += verify_shards(j.ckpt_prefix, j.ckpt_key, shards,
                                w.ckpt_bytes);
    }
    if (shim) {
      const core::MetricsFrame f1 = frame_of(srv);
      FrameDelta d;
      d.add(f0, f1);
      if (delta) delta->add(f0, f1);
      const std::string path = work + "/stats_" + tag + ".json";
      const std::string stats = slurp(path);
      if (!served_by_hvac(j, d, stats, shards)) {
        std::fprintf(stderr, "epoch %s was not served by HVAC\n", tag.c_str());
        r.failed = r.attempted;
      }
      if (stats_json) *stats_json = stats;
      fs::remove(path);
      fs::remove(work + "/plan_" + tag);
    }
    attempted += r.attempted;
    failed += r.failed;
    return r;
  }

  // Untimed warm-up: a shim epoch over the whole tree (order 0). On
  // cold_pfs it is a cold epoch like the timed ones, which leaves the
  // first timed epoch no one-off costs to pay.
  void warm_up() {
    const std::vector<size_t> ord = order(0);
    epoch_run(job(ord, true, 0, 'w'), true, nullptr, nullptr);
  }

  // Server start to ready, plus the warm-up epoch. Every set-up starts
  // on a clean filesystem: the previous server's cache was just
  // deleted, and its copies would otherwise be written back while this
  // warm-up creates new ones.
  double setup() {
    sync_fs(work);
    const uint64_t t0 = now_ns();
    start_server(w, ds, work + "/cache", &srv);
    warm_up();
    return double(now_ns() - t0) / 1e9;
  }

  std::string counts_json(const FrameDelta& d, uint64_t samples) const;
  void run_e2e(Report* rep, std::string* counts);
  void run_traced(Report* rep);
  void client_epoch(uint64_t e, const std::vector<size_t>& ord, LayerTimes* t);
  void rpc_epoch(uint64_t e, const std::vector<size_t>& ord, LayerTimes* t);
  void storage_epoch(uint64_t e, const std::vector<size_t>& ord,
                     StorageTimes* t);
};

const char* op_label(uint16_t op) {
  switch (op) {
    case proto::kPing: return "ping";
    case proto::kOpen: return "open";
    case proto::kRead: return "read";
    case proto::kClose: return "close";
    case proto::kStat: return "stat";
    case proto::kPrefetch: return "prefetch";
    case proto::kReadScatter: return "scatter";
    case proto::kPrefetchBatch: return "prefetch_batch";
    case proto::kPackedIndex: return "packed_index";
    case proto::kWriteOpen: return "write_open";
    case proto::kWrite: return "write";
    case proto::kFsync: return "fsync";
    case proto::kWriteClose: return "write_close";
    default: return "other";
  }
}

// The exact counts of the first timed epoch: a later count-based claim
// names these as its base.
std::string Bench::counts_json(const FrameDelta& d, uint64_t samples) const {
  uint64_t order_digest = ds.digest;
  for (uint64_t e = 0; e < 4; ++e) {
    for (size_t i : order(e)) order_digest = fnv_str(std::to_string(i) + ",", order_digest);
  }
  std::ostringstream o;
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, ds.digest);
  o << "{\"manifest_digest\":\"" << hex << "\"";
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, order_digest);
  o << ",\"order_digest\":\"" << hex << "\",\"samples\":" << samples
    << ",\"rpcs\":{";
  bool first = true;
  for (const auto& [op, v] : d.ops) {
    if (op == proto::kPing || op == proto::kMetrics) continue;
    o << (first ? "" : ",") << "\"" << op_label(op) << "\":" << v.first;
    first = false;
  }
  o << "},\"server_hits\":" << d.hits << ",\"server_misses\":" << d.misses
    << ",\"pfs_metadata_ops\":" << d.pfs_meta
    << ",\"pfs_bytes_read\":" << d.pfs_read
    << ",\"pfs_bytes_written\":" << d.pfs_written << "}";
  return o.str();
}

// Resident set of this process (the driver hosting the server), in MB.
double rss_now_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0;
}

void Bench::run_e2e(Report* rep, std::string* counts) {
  std::vector<double> setups;
  if (w.cold) {
    // Every timed cold epoch starts its own server, so the set-ups run
    // first, each on a fresh server and cache.
    for (int i = 0; i < w.setup_reps; ++i) {
      pin(i);
      setups.push_back(setup());
      stop_server(&srv);
    }
  }
  // Per-epoch figures, summarised below.
  std::vector<double> shim_s, direct_s, ratios, p50, p90, p99, mbps, ckpt_ms,
      drains, rss, server_rss;
  uint64_t samples = 0;
  // Warm workloads split the timed epochs over setup_reps freshly set-up
  // servers, so one instance's luck does not decide the run.
  const int instances = w.cold ? 1 : w.setup_reps;
  const int min_epochs = smoke ? 2 : 3;
  uint64_t e = 1;
  for (int inst = 0; inst < instances; ++inst) {
    if (!w.cold) {
      pin(inst);
      setups.push_back(setup());
      sync_fs(work);
    }
    const uint64_t t_end = now_ns() + uint64_t(seconds / instances * 1e9);
    for (int n = 0; n < min_epochs || now_ns() < t_end; ++n, ++e) {
      const std::vector<size_t> ord = order(e);
      if (w.cold) {
        pin(e);
        start_server(w, ds, work + "/cache", &srv);
      }
      const uint64_t meta0 = srv.rt->pfs().metadata_ops();
      const uint64_t read0 = srv.rt->pfs().bytes_read();
      const uint64_t wr0 = srv.rt->pfs().bytes_written();
      double drain = 0;
      FrameDelta d;
      const EpochResult hv =
          epoch_run(job(ord, true, e, 'h'), true, &drain, nullptr, &d);
      // The driver's RSS creeps up with every server it has started
      // (allocator arenas), so it is taken at the same points of every
      // run: after each of the first three timed epochs.
      if (e <= 3) server_rss.push_back(rss_now_mb());
      if (e == 1) {
        d.pfs_meta = srv.rt->pfs().metadata_ops() - meta0;
        d.pfs_read = srv.rt->pfs().bytes_read() - read0;
        d.pfs_written = srv.rt->pfs().bytes_written() - wr0;
        *counts = counts_json(d, hv.sample_ns.size());
      }
      if (w.cold) stop_server(&srv);
      const EpochResult direct =
          epoch_run(job(ord, false, e, 'd'), false, nullptr, nullptr);
      shim_s.push_back(double(hv.epoch_ns) / 1e9);
      direct_s.push_back(double(direct.epoch_ns) / 1e9);
      ratios.push_back(ratio(double(hv.epoch_ns), double(direct.epoch_ns)));
      std::vector<double> us;
      for (uint64_t ns : hv.sample_ns) us.push_back(double(ns) / 1e3);
      p50.push_back(quantile(us, 0.50));
      p90.push_back(quantile(us, 0.90));
      p99.push_back(quantile(us, 0.99));
      mbps.push_back(ratio(double(hv.bytes) * 1e3, double(hv.read_ns)));
      ckpt_ms.insert(ckpt_ms.end(), hv.ckpt_ms.begin(), hv.ckpt_ms.end());
      if (hv.last_close_ns) drains.push_back(drain);
      rss.push_back(hv.rss_mb);
      samples += hv.sample_ns.size();
    }
    stop_server(&srv);
  }

  std::printf("epochs_s");
  for (double v : shim_s) std::printf(" %.4f", v);
  std::printf("\ndirect_s");
  for (double v : direct_s) std::printf(" %.4f", v);
  std::printf("\n");
  // Each per-epoch timing is summarised by its median over the run's
  // epochs. Beside it are printed the quiet quartile (the lower one for
  // times, the upper one for throughput) and the slow tail (p90 of
  // times, p10 of throughput) of the same per-epoch values: the first
  // shows the program on a quiet host, the second a regression that
  // stalls only some epochs.
  auto summarise = [&](const std::string& name, const std::vector<double>& v,
                       const std::string& unit, uint64_t n, bool higher) {
    rep->add(name, median(v), unit, n);
    rep->add(name + (higher ? ".q75" : ".q25"),
             quantile(v, higher ? 0.75 : 0.25), unit, n);
    rep->add(name + (higher ? ".p10" : ".p90"), quantile(v, higher ? 0.1 : 0.9),
             unit, n);
  };
  summarise("epoch_s", shim_s, "s", shim_s.size(), false);
  summarise("overhead_x", ratios, "ratio", ratios.size(), false);
  summarise("sample_p50_us", p50, "us", samples, false);
  summarise("sample_p90_us", p90, "us", samples, false);
  summarise("sample_p99_us", p99, "us", samples, false);
  summarise("read_MBps", mbps, "MB/s", samples, true);
  rep->add("setup_s", median(setups), "s", setups.size());
  rep->add("reader_rss_MB", median(rss), "MB", rss.size());
  rep->add("server_rss_MB", median(server_rss), "MB", server_rss.size());
  if (!ckpt_ms.empty()) {
    rep->add("ckpt_p50_ms", quantile(ckpt_ms, 0.50), "ms", ckpt_ms.size());
    rep->add("ckpt_p90_ms", quantile(ckpt_ms, 0.90), "ms", ckpt_ms.size());
    rep->add("flush_drain_s", median(drains), "s", drains.size());
  }
  rep->add("fail_ratio", ratio(double(failed), double(attempted)), "ratio",
           attempted);
}

// ---- traced mode: one pass per layer boundary ---------------------------------

// One sample through the client the way the shim drives it; false on
// any error.
bool client_sample(client::HvacClient& c, const std::string& path,
                   std::vector<uint8_t>& buf, LayerTimes& t, uint64_t* size,
                   uint64_t* fnv) {
  const uint64_t s0 = now_ns();
  auto fd = time_into(t.open, [&] { return c.open(path); });
  if (!fd.ok() || !c.lseek(*fd, 0, SEEK_END).ok() ||
      !c.lseek(*fd, 0, SEEK_SET).ok()) {
    return false;
  }
  uint64_t h = perfbench::kFnvBasis, total = 0;
  for (;;) {
    auto n = time_into(t.read, [&] { return c.read(*fd, buf.data(), buf.size()); });
    if (!n.ok()) return false;
    if (*n == 0) break;
    h = perfbench::fnv1a(buf.data(), *n, h);
    total += *n;
  }
  if (!time_into(t.close, [&] { return c.close(*fd); }).ok()) return false;
  t.sample.add(now_ns() - s0);
  *size = total;
  *fnv = h;
  return true;
}

// (B) An in-process HvacClient on the demand protocol (no read-ahead,
// no plan, no PFS fallback), making the calls the shim makes.
void Bench::client_epoch(uint64_t e, const std::vector<size_t>& ord,
                         LayerTimes* t) {
  std::vector<uint8_t> buf(w.read_bytes), shard(w.ckpt_bytes);
  client::HvacClientOptions o;
  o.dataset_dir = ds.pfs;
  o.server_endpoints = srv.rt->endpoints();
  o.readahead_chunks = 0;
  o.allow_pfs_fallback = false;
  client::HvacClient cl(o);
  const std::string prefix = ds.pfs + "/" + shard_rel('b', e);
  const uint64_t key = shard_key(seed, e, 'b');
  uint64_t shards = 0;
  for (size_t k = 0; k < ord.size(); ++k) {
    const Sample& s = ds.samples[ord[k]];
    uint64_t size = 0, fnv = 0;
    ++attempted;
    if (!client_sample(cl, ds.pfs + "/" + s.rel, buf, *t, &size, &fnv) ||
        size != s.size || fnv != s.fnv) {
      ++failed;
    }
    if (w.ckpt_every && (k + 1) % w.ckpt_every == 0) {
      perfbench::fill_shard(key + shards, shard.data(), shard.size());
      auto wfd = time_into(t->open_write, [&] {
        return cl.open_write(prefix + std::to_string(shards), true);
      });
      ++shards;
      bool ok = wfd.ok();
      for (uint64_t off = 0; ok && off < shard.size(); off += w.ckpt_write) {
        const size_t len = std::min<uint64_t>(w.ckpt_write, shard.size() - off);
        ok = time_into(t->write, [&] {
               return cl.write(*wfd, shard.data() + off, len);
             }).ok();
      }
      ok = ok && time_into(t->fsync, [&] { return cl.fsync(*wfd); }).ok();
      ok = ok && cl.close(*wfd).ok();
      if (!ok) ++failed;
    }
  }
  if (shards) {
    wait_flushed(*srv.rt);
    attempted += shards;
    failed += verify_shards(prefix, key, shards, w.ckpt_bytes);
  }
}

// (C) Raw RpcClient calls carrying exactly the requests pass B's client
// sends: kOpen, one kRead per read() including the one that hits EOF,
// kClose (packed samples: one path-mode kReadScatter per read(), no
// open or close); shards send kWriteOpen, kWrite per write(), kFsync
// and kWriteClose.
void Bench::rpc_epoch(uint64_t e, const std::vector<size_t>& ord,
                      LayerTimes* t) {
  std::vector<uint8_t> shard(w.ckpt_bytes);
  rpc::RpcClient rc(rpc::Endpoint{srv.rt->endpoints().at(0)});
  const std::string prefix_rel = shard_rel('c', e);
  const uint64_t key = shard_key(seed, e, 'c');
  uint64_t shards = 0;
  for (size_t k = 0; k < ord.size(); ++k) {
    const Sample& s = ds.samples[ord[k]];
    ++attempted;
    const uint64_t s0 = now_ns();
    uint64_t h = perfbench::kFnvBasis, total = 0;
    bool ok = true;
    uint64_t remote_fd = 0;
    if (!w.packed) {
      rpc::WireWriter req;
      req.put_string(s.rel);
      auto resp = time_into(t->open, [&] { return rc.call(proto::kOpen, req); });
      ok = resp.ok();
      if (ok) {
        rpc::WireReader r(*resp);
        auto fdv = r.get_u64();
        ok = fdv.ok();
        if (ok) remote_fd = *fdv;
      }
    }
    while (ok) {
      rpc::WireWriter req;
      if (w.packed) {
        req.put_u8(1);
        req.put_string(s.rel);
        req.put_u32(1);
        req.put_u64(total);
        req.put_u32(uint32_t(w.read_bytes));
      } else {
        req.put_u64(remote_fd);
        req.put_u64(total);
        req.put_u32(uint32_t(w.read_bytes));
      }
      const uint16_t op = w.packed ? proto::kReadScatter : proto::kRead;
      auto resp = time_into(t->read, [&] {
        return rc.call_payload(op, req.bytes());
      });
      if (!resp.ok()) {
        ok = false;
        break;
      }
      const uint8_t* data = nullptr;
      size_t len = 0;
      if (w.packed) {
        auto sv = rpc::decode_scatter(resp->data(), resp->size());
        if (!sv.ok() || sv->extents.size() != 1) {
          ok = false;
          break;
        }
        data = sv->extents[0].data;
        len = sv->extents[0].length;
      } else {
        rpc::WireReader r(resp->data(), resp->size());
        auto blob = r.get_blob_view();
        if (!blob.ok()) {
          ok = false;
          break;
        }
        data = blob->data;
        len = blob->size;
      }
      if (len == 0) break;
      h = perfbench::fnv1a(data, len, h);
      total += len;
    }
    if (ok && !w.packed) {
      rpc::WireWriter req;
      req.put_u64(remote_fd);
      ok = time_into(t->close, [&] { return rc.call(proto::kClose, req); }).ok();
    }
    t->sample.add(now_ns() - s0);
    if (!ok || total != s.size || h != s.fnv) ++failed;
    if (w.ckpt_every && (k + 1) % w.ckpt_every == 0) {
      perfbench::fill_shard(key + shards, shard.data(), shard.size());
      rpc::WireWriter open_req;
      open_req.put_string(prefix_rel + std::to_string(shards));
      open_req.put_u8(1);
      ++shards;
      auto resp = time_into(t->open_write, [&] {
        return rc.call(proto::kWriteOpen, open_req);
      });
      bool wok = resp.ok();
      uint64_t wfd = 0;
      if (wok) {
        rpc::WireReader r(*resp);
        auto v = r.get_u64();
        wok = v.ok();
        if (wok) wfd = *v;
      }
      for (uint64_t off = 0; wok && off < shard.size(); off += w.ckpt_write) {
        const size_t len = std::min<uint64_t>(w.ckpt_write, shard.size() - off);
        rpc::WireWriter req;
        req.put_u64(wfd);
        req.put_u64(off);
        req.put_blob(shard.data() + off, len);
        wok = time_into(t->write, [&] { return rc.call(proto::kWrite, req); }).ok();
      }
      rpc::WireWriter sync_req;
      sync_req.put_u64(wfd);
      sync_req.put_u8(proto::kDurabilityLocal);
      wok = wok && time_into(t->fsync, [&] {
                     return rc.call(proto::kFsync, sync_req);
                   }).ok();
      wok = wok && rc.call(proto::kWriteClose, sync_req).ok();
      if (!wok) ++failed;
    }
  }
  if (shards) {
    wait_flushed(*srv.rt);
    attempted += shards;
    failed += verify_shards(ds.pfs + "/" + prefix_rel, key, shards,
                            w.ckpt_bytes);
  }
}

// (D) Storage and core against a fresh store: mover fetch (PFS
// copy-out + insert), pinned local reads, direct PFS open/copy-out, and
// for checkpoints journal append/commit plus flush submit/wait.
void Bench::storage_epoch(uint64_t e, const std::vector<size_t>& ord,
                          StorageTimes* t) {
  std::vector<uint8_t> buf(w.read_bytes), shard(w.ckpt_bytes);
  const std::string dir = work + "/store_d";
  fs::remove_all(dir);
  storage::PfsBackend pfs(ds.pfs, pfs_options(w));
  auto store = std::make_unique<storage::LocalStore>(dir + "/cache");
  storage::LocalStore* local = store.get();
  core::CacheManager cache(&pfs, std::move(store),
                           core::make_eviction_policy("random", seed));
  core::DataMover mover(&cache, 1);
  uint64_t copied = 0;
  for (size_t k = 0; k < ord.size(); ++k) {
    const Sample& s = ds.samples[ord[k]];
    std::string key = s.rel;
    uint64_t base = 0;
    if (ds.packed) {
      auto res = ds.packed->resolve(s.rel);
      if (!res) {
        ++failed;
        continue;
      }
      key = res->container_logical;
      base = res->base;
    }
    ++attempted;
    if (!local->contains(key)) {
      // Direct PFS primitives on the first few distinct files.
      if (copied < 64) {
        ++copied;
        auto f = time_into(t->pfs_open, [&] { return pfs.open(key); });
        (void)f;
        auto n = time_into(t->pfs_copy, [&] {
          return pfs.copy_out(key, dir + "/copy.tmp");
        });
        if (!n.ok()) ++failed;
      }
      if (!time_into(t->fetch, [&] { return mover.fetch(key); }).ok()) {
        ++failed;
        continue;
      }
    }
    auto pin = local->open_pinned(key);
    if (!pin.ok()) {
      ++failed;
      continue;
    }
    uint64_t h = perfbench::kFnvBasis, total = 0;
    for (;;) {
      const size_t want = std::min<uint64_t>(w.read_bytes, s.size - total);
      if (want == 0) break;
      auto n = time_into(t->local_read, [&] {
        return pin->pread(buf.data(), want, base + total);
      });
      if (!n.ok() || *n == 0) break;
      h = perfbench::fnv1a(buf.data(), *n, h);
      total += *n;
    }
    if (total != s.size || h != s.fnv) ++failed;
  }
  if (w.ckpt_every) {
    auto journal = storage::WriteJournal::open(dir + "/journal");
    const std::string prefix_rel = shard_rel('s', e);
    const uint64_t key = shard_key(seed, e, 's');
    const uint64_t shards = ord.size() / w.ckpt_every;
    fs::create_directories(dir + "/wb");
    core::FlushManager flusher(
        core::FlushManager::Options{},
        [&](const std::string& rel) {
          return pfs.copy_in(dir + "/wb/" + fs::path(rel).filename().string(),
                             rel).ok()
                     ? Status::Ok()
                     : Status(Error(ErrorCode::kIoError, "copy_in " + rel));
        },
        [](const std::string&) {});
    for (uint64_t k = 0; journal.ok() && k < shards; ++k) {
      const std::string rel = prefix_rel + std::to_string(k);
      perfbench::fill_shard(key + k, shard.data(), shard.size());
      bool ok = storage::write_file(dir + "/wb/" + fs::path(rel).filename().string(),
                                    shard.data(), shard.size()).ok();
      for (uint64_t off = 0; ok && off < shard.size(); off += w.ckpt_write) {
        const size_t len = std::min<uint64_t>(w.ckpt_write, shard.size() - off);
        ok = (*journal)->append_write(rel, off, shard.data() + off, len).ok();
      }
      ok = ok && time_into(t->journal_commit, [&] { return (*journal)->commit(); }).ok();
      const uint64_t f0 = now_ns();
      ok = ok && flusher.submit(rel).ok() && flusher.wait(rel).ok();
      t->flush.add(now_ns() - f0);
      ++attempted;
      if (!ok) ++failed;
    }
    flusher.shutdown();
    attempted += shards;
    failed += verify_shards(ds.pfs + "/" + prefix_rel, key, shards,
                            w.ckpt_bytes);
    if (!journal.ok()) failed += shards;
  }
  mover.shutdown();
  fs::remove_all(dir);
}

// Passes A (shim), B (client) and C (raw RPC) run in rounds on one
// order per round, so drift over the run touches every pass alike. A
// round is:
//   - a shim epoch on the client's defaults (read-ahead; the prefetch
//     plan on cold_pfs), which gives every count and ratio below;
//   - an untraced and a traced shim epoch on the demand protocol, which
//     give the intercept timings and the tracing overhead;
//   - a pass B and a pass C epoch, on the same demand protocol.
// So passes A to C send the same requests and their per-op times can be
// subtracted; each pass's time per call is that of its quietest round.
// Pass D (storage/core) takes the last tenth of the run.
void Bench::run_traced(Report* rep) {
  if (!w.cold) {
    setup();
    sync_fs(work);
  }
  auto begin_epoch = [&] {
    if (w.cold) start_server(w, ds, work + "/cache", &srv);
  };
  auto end_epoch = [&] {
    if (w.cold) stop_server(&srv);
  };

  FrameDelta conf_fd, ledger_fd;
  double meta_hits = 0, meta_lookups = 0, ra_hits = 0, ra_issued = 0,
         ra_wasted = 0, pf_hit = 0, pf_planned = 0, fallback_opens = 0;
  std::map<std::string, double> stall;
  int conf_epochs = 0;
  uint64_t conf_samples = 0, traced_samples = 0;
  std::vector<double> plain_s, traced_s;
  std::vector<std::map<std::string, OpTimer>> ops_rounds;
  std::vector<LayerTimes> bt_rounds, ct_rounds;
  uint64_t e = 1;
  const uint64_t t_end = now_ns() + uint64_t(seconds * 0.9 * 1e9);
  for (int round = 0; round == 0 || now_ns() < t_end; ++round, ++e) {
    const std::vector<size_t> ord = order(e);
    {
      begin_epoch();
      std::string stats;
      const EpochResult r =
          epoch_run(job(ord, true, e, 'a'), true, nullptr, &stats, &conf_fd);
      end_epoch();
      ++conf_epochs;
      conf_samples += r.sample_ns.size();
      meta_hits += json_sum(stats, "meta_cache", "hits");
      meta_lookups += json_sum(stats, "meta_cache", "hits") +
                      json_sum(stats, "meta_cache", "misses");
      ra_issued += json_sum(stats, "read_ahead", "issued");
      ra_hits += json_sum(stats, "read_ahead", "consumed");
      ra_wasted += json_sum(stats, "read_ahead", "wasted");
      pf_planned += json_sum(stats, "prefetch", "planned");
      pf_hit += json_sum(stats, "prefetch", "hit_after_prefetch");
      fallback_opens += json_sum(stats, "", "fallback_opens");
      for (const char* b : {"local_hit", "remote_rpc", "pfs_wait",
                            "backpressure", "retry"}) {
        stall[b] += json_sum(stats, "stall", std::string(b) + "_ns") / 1e9;
      }
    }
    for (const bool traced : {false, true}) {
      begin_epoch();
      ReaderJob j = job(ord, true, e, traced ? 't' : 'l', /*demand=*/true);
      j.trace = traced;
      const EpochResult r = epoch_run(j, true, nullptr, nullptr, &ledger_fd);
      end_epoch();
      (traced ? traced_s : plain_s).push_back(double(r.epoch_ns) / 1e9);
      if (!traced) continue;
      traced_samples += r.sample_ns.size();
      ops_rounds.push_back(r.ops);
    }
    begin_epoch();
    client_epoch(e, ord, &bt_rounds.emplace_back());
    end_epoch();
    begin_epoch();
    rpc_epoch(e, ord, &ct_rounds.emplace_back());
    end_epoch();
  }
  stop_server(&srv);

  StorageTimes st;
  const uint64_t d_end = now_ns() + uint64_t(seconds * 0.1 * 1e9);
  for (int i = 0; i == 0 || now_ns() < d_end; ++i, ++e) {
    storage_epoch(e, order(e), &st);
  }

  // Passes A to C: every time per call is that of the quietest round.
  LayerTimes bt, ct;
  for (OpTimer LayerTimes::*op :
       {&LayerTimes::open, &LayerTimes::read, &LayerTimes::close,
        &LayerTimes::write, &LayerTimes::fsync, &LayerTimes::sample,
        &LayerTimes::open_write}) {
    std::vector<OpTimer> b, c;
    for (const LayerTimes& t : bt_rounds) b.push_back(t.*op);
    for (const LayerTimes& t : ct_rounds) c.push_back(t.*op);
    bt.*op = quiet(b);
    ct.*op = quiet(c);
  }

  // (A) the shim.
  uint64_t intercept_calls = 0;
  for (const char* op : {"open", "fstat", "lseek", "read", "close",
                         "open_write", "write", "fsync", "close_write"}) {
    std::vector<OpTimer> rounds;
    for (const auto& r : ops_rounds) {
      if (auto it = r.find(op); it != r.end()) rounds.push_back(it->second);
    }
    const OpTimer t = quiet(rounds);
    intercept_calls += t.count;
    const bool write_op = std::string(op).find("write") != std::string::npos ||
                          std::string(op) == "fsync";
    if (t.count > 0 || !write_op) {
      rep->add(std::string("intercept.") + op + "_us", t.mean_us(), "us", t.count);
    }
  }
  rep->add("intercept.calls_per_sample",
           ratio(double(intercept_calls), double(traced_samples)), "count",
           intercept_calls);
  rep->add("trace.overhead_ratio", ratio(median(traced_s), median(plain_s)),
           "ratio", traced_s.size() + plain_s.size());
  rep->add("client.meta_hit_ratio", ratio(meta_hits, meta_lookups), "ratio",
           uint64_t(meta_lookups));
  rep->add("client.readahead_hit_ratio", ratio(ra_hits, ra_issued), "ratio",
           uint64_t(ra_issued));
  rep->add("client.readahead_wasted", ra_wasted, "count");
  rep->add("client.prefetch_hit_ratio", ratio(pf_hit, pf_planned), "ratio",
           uint64_t(pf_planned));
  rep->add("client.fallback_opens", fallback_opens, "count");
  uint64_t n = 0;
  for (const auto& [op, v] : conf_fd.ops) {
    if (op == proto::kPing || op == proto::kMetrics) continue;
    rep->add(std::string("rpc.per_sample.") + op_label(op),
             ratio(double(v.first), double(conf_samples)), "count", v.first);
    n += v.first;
  }
  rep->add("rpc.calls_per_sample", ratio(double(n), double(conf_samples)),
           "count", n);
  rep->add("rpc.zc_bytes_ratio",
           ratio(double(conf_fd.sendfile_bytes), double(conf_fd.served_bytes)),
           "ratio", conf_fd.served_bytes);
  uint64_t c = 0;
  double v = ledger_fd.mean_us({proto::kOpen}, &c);
  rep->add("server.handler_open_us", v, "us", c);
  v = ledger_fd.mean_us({proto::kRead, proto::kReadScatter}, &c);
  rep->add("server.handler_read_us", v, "us", c);
  if (w.ckpt_every) {
    v = ledger_fd.mean_us({proto::kWrite}, &c);
    rep->add("server.handler_write_us", v, "us", c);
  }
  rep->add("server.cache_hit_ratio",
           ratio(double(conf_fd.hits), double(conf_fd.hits + conf_fd.misses)),
           "ratio", conf_fd.hits + conf_fd.misses);
  rep->add("server.steals", double(conf_fd.steals), "count");
  rep->add("server.shed", double(conf_fd.shed), "count");
  rep->add("core.mover_dedup", double(conf_fd.dedup), "count");
  rep->add("storage.handle_cache_hit_ratio",
           ratio(double(conf_fd.hc_hits),
                 double(conf_fd.hc_hits + conf_fd.hc_misses)),
           "ratio", conf_fd.hc_hits + conf_fd.hc_misses);
  for (const auto& [b, s] : stall) {
    rep->add("stall." + b + "_s", s / std::max(conf_epochs, 1), "s",
             uint64_t(conf_epochs));
  }

  // (B) the client.
  rep->add("client.open_us", bt.open.mean_us(), "us", bt.open.count);
  rep->add("client.read_us", bt.read.mean_us(), "us", bt.read.count);
  rep->add("client.close_us", bt.close.mean_us(), "us", bt.close.count);
  rep->add("client.sample_us", bt.sample.mean_us(), "us", bt.sample.count);
  if (w.packed) {
    // Every open of warm_packed resolves through the packed catalog.
    rep->add("client.packed_open_us", bt.open.mean_us(), "us", bt.open.count);
  }
  if (w.ckpt_every) {
    rep->add("client.open_write_us", bt.open_write.mean_us(), "us",
             bt.open_write.count);
    rep->add("client.write_us", bt.write.mean_us(), "us", bt.write.count);
    rep->add("client.fsync_us", bt.fsync.mean_us(), "us", bt.fsync.count);
  }

  // (C) raw RPC.
  if (!w.packed) {
    rep->add("rpc.open_us", ct.open.mean_us(), "us", ct.open.count);
    rep->add("rpc.close_us", ct.close.mean_us(), "us", ct.close.count);
  }
  rep->add("rpc.read_us", ct.read.mean_us(), "us", ct.read.count);
  if (w.packed) {
    // Packed reads are path-mode kReadScatter calls.
    rep->add("rpc.scatter_us", ct.read.mean_us(), "us", ct.read.count);
  }
  rep->add("rpc.sample_us", ct.sample.mean_us(), "us", ct.sample.count);
  if (w.ckpt_every) {
    rep->add("rpc.write_open_us", ct.open_write.mean_us(), "us",
             ct.open_write.count);
    rep->add("rpc.write_us", ct.write.mean_us(), "us", ct.write.count);
    rep->add("rpc.fsync_us", ct.fsync.mean_us(), "us", ct.fsync.count);
  }

  // (D) storage and core.
  rep->add("core.mover_fetch_ms", st.fetch.mean_ms(), "ms", st.fetch.count);
  rep->add("storage.local_read_us", st.local_read.mean_us(), "us",
           st.local_read.count);
  rep->add("storage.pfs_open_us", st.pfs_open.mean_us(), "us",
           st.pfs_open.count);
  rep->add("storage.pfs_copy_ms", st.pfs_copy.mean_ms(), "ms",
           st.pfs_copy.count);
  if (w.ckpt_every) {
    rep->add("storage.journal_commit_us", st.journal_commit.mean_us(), "us",
             st.journal_commit.count);
    rep->add("core.flush_ms", st.flush.mean_ms(), "ms", st.flush.count);
  }

  // Self time per layer: its per-op time minus the next pass down.
  auto self = [&](const std::string& name, const char* upper,
                  const char* lower) {
    const Metric* u = rep->find(upper);
    const Metric* l = rep->find(lower);
    if (u && l) rep->add(name, u->value - l->value, "us");
  };
  self("self.intercept_open_us", "intercept.open_us", "client.open_us");
  self("self.intercept_read_us", "intercept.read_us", "client.read_us");
  self("self.intercept_close_us", "intercept.close_us", "client.close_us");
  self("self.client_open_us", "client.open_us", "rpc.open_us");
  self("self.client_read_us", "client.read_us", "rpc.read_us");
  self("self.client_close_us", "client.close_us", "rpc.close_us");
  self("self.rpc_read_us", "rpc.read_us", "storage.local_read_us");

  // Per-op time should not increase down the passes. Each chain prints
  // its values top to bottom. The passes are separate epochs, whose
  // per-op times differ by a few percent of noise, and some layers cost
  // less than that (the client adds well under 1 us to a 30 us read). So
  // a step up within kOrderSlack is printed as "~" and only a larger one
  // as "<", counted as a violation.
  constexpr double kOrderSlack = 0.05;
  uint64_t violations = 0;
  for (const auto& chain : std::vector<std::vector<const char*>>{
           {"intercept.open_us", "client.open_us", "rpc.open_us"},
           {"intercept.read_us", "client.read_us", "rpc.read_us",
            "storage.local_read_us"},
           {"intercept.close_us", "client.close_us", "rpc.close_us"}}) {
    std::printf("order");
    const Metric* prev = nullptr;
    for (const char* name : chain) {
      const Metric* m = rep->find(name);
      if (m == nullptr) continue;
      const char* step = "";
      if (prev) {
        const bool up = m->value > prev->value * (1 + kOrderSlack);
        violations += up ? 1 : 0;
        step = up ? "< " : m->value > prev->value ? "~ " : ">= ";
      }
      std::printf(" %s%s %.4g", step, name, m->value);
      prev = m;
    }
    std::printf("\n");
  }
  rep->add("trace.order_violations", double(violations), "count");
}

// ---- run stamp ------------------------------------------------------------------

std::string fs_name(const std::string& path) {
  struct statfs s{};
  if (::statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<uint64_t>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x01021994: return "tmpfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", (unsigned long)s.f_type);
      return buf;
    }
  }
}

// Aggregate CPU jiffies {total, steal} from /proc/stat: the share of
// time the hypervisor ran someone else on this VM's CPUs, a record of
// outside noise during the run.
std::pair<uint64_t, uint64_t> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v = 0, total = 0, steal = 0;
  in >> cpu;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {total, steal};
}

std::string stamp_json(const Bench& b, const std::string& git_sha,
                       double steal_pct) {
  std::string cpus = b.cpus.empty() ? "all" : "";
  for (int cpu : b.cpus) {
    cpus += (cpus.empty() ? "" : ",") + std::to_string(cpu);
  }
  struct utsname u{};
  ::uname(&u);
  std::ostringstream o;
  o << "{\"workload\":\"" << b.w.name << "\",\"seed\":" << b.seed
    << ",\"nproc\":" << ::sysconf(_SC_NPROCESSORS_ONLN) << ",\"cpus\":\""
    << cpus << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"git_sha\":\""
    << git_sha << "\",\"kernel\":\"" << u.release << "\",\"scratch_fs\":\""
    << fs_name(b.work) << "\",\"throttle\":\""
    << (b.w.cold ? "gpfs_like: 800+-300us metadata, 256 MiB/s" : "none")
    << "\",\"files\":" << b.w.files << ",\"mean_bytes\":" << b.w.mean_bytes
    << ",\"cpu_steal_pct\":" << steal_pct
    << ",\"smoke\":" << (b.smoke ? "true" : "false") << "}";
  return o.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, work, fault, git_sha = "unknown";
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : "";
    if (a == "--workload") name = v, ++i;
    else if (a == "--seed") seed = std::strtoull(v, nullptr, 10), ++i;
    else if (a == "--seconds") seconds = std::atof(v), ++i;
    else if (a == "--trace") trace = std::atoi(v), ++i;
    else if (a == "--work") work = v, ++i;
    else if (a == "--git-sha") git_sha = v, ++i;
    else if (a == "--fault") fault = v, ++i;
    else if (a == "--smoke") smoke = true;
    else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  Bench b;
  if (!make_workload(name, smoke, &b.w) || work.empty() || seconds <= 0 ||
      !(fault.empty() || fault == "stopped-server" || fault == "pfs-fallback")) {
    std::fprintf(stderr, "usage: perfbench_driver --workload "
                         "warm_small|warm_packed|cold_pfs|seq_ckpt --seed N "
                         "--seconds S --trace 0|1 --work DIR [--smoke] "
                         "[--fault stopped-server|pfs-fallback]\n");
    return 2;
  }
  b.seed = seed;
  b.seconds = seconds;
  b.smoke = smoke;
  b.fault = fault;
  b.work = fs::absolute(work).string();
  b.cpus = allowed_cpus();
  b.pin(0);
  fs::remove_all(b.work);
  fs::create_directories(b.work);
  if (!generate(b.w, seed, b.work, &b.ds)) return 1;
  sync_fs(b.work);

  const auto jiffies0 = cpu_jiffies();
  Report rep;
  std::string counts = "{}";
  if (trace) {
    b.run_traced(&rep);
  } else {
    b.run_e2e(&rep, &counts);
  }
  const auto jiffies1 = cpu_jiffies();
  const std::string stamp = stamp_json(
      b, git_sha,
      100.0 * ratio(double(jiffies1.second - jiffies0.second),
                    double(jiffies1.first - jiffies0.first)));
  fs::remove_all(b.work);

  std::printf("stamp %s\n", stamp.c_str());
  if (!trace) std::printf("counts %s\n", counts.c_str());
  for (const Metric& m : rep.metrics) {
    std::printf("metric %-34s %14.6g %-6s n=%" PRIu64 "\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.count);
  }
  std::ostringstream o;
  o << "{\"correct\": " << (b.failed == 0 ? "true" : "false")
    << ", \"attempted\": " << std::max<uint64_t>(b.attempted, 1)
    << ", \"failed\": " << b.failed << ", \"metrics\": {";
  bool first = true;
  bool complete = true;
  auto emit = [&](const char* metric) {
    const Metric* m = rep.find(metric);
    if (m == nullptr) {
      complete = false;
      return;
    }
    char val[64];
    std::snprintf(val, sizeof(val), "%.12g", m->value);
    o << (first ? "" : ", ") << "\"" << metric << "\": {\"value\": " << val
      << ", \"unit\": \"" << m->unit << "\"}";
    first = false;
  };
  if (trace) {
    for (const char* m : kPerLayer) emit(m);
  } else {
    for (const char* m : kEndToEnd) emit(m);
  }
  o << "}}";
  std::printf("%s\n", o.str().c_str());
  return b.failed == 0 && complete ? 0 : 1;
}
