// Microbenchmarks (google-benchmark) for the hot primitives: stable
// hashing, the three placement policies, eviction bookkeeping, the
// MPMC queue, wire serialization, the write-ahead journal append and
// the data mover's cold fetch.
#include <benchmark/benchmark.h>
#include <sys/resource.h>
#include <unistd.h>

#include <filesystem>
#include <future>
#include <vector>

#include "common/hash.h"
#include "common/mpmc_queue.h"
#include "core/cache_manager.h"
#include "core/data_mover.h"
#include "core/eviction.h"
#include "core/placement.h"
#include "rpc/wire.h"
#include "storage/write_journal.h"

namespace {

using namespace hvac;

void BM_StableHash(benchmark::State& state) {
  const std::string path =
      "train/class_0421/imagenet21k_00314159.bin";
  for (auto _ : state) {
    benchmark::DoNotOptimize(stable_hash(path));
  }
}
BENCHMARK(BM_StableHash);

void BM_PlacementHome(benchmark::State& state) {
  const auto policy = static_cast<core::PlacementPolicy>(state.range(0));
  core::Placement placement(1024, policy);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        placement.home("c/" + std::to_string(i++ & 1023)));
  }
}
BENCHMARK(BM_PlacementHome)
    ->Arg(int(core::PlacementPolicy::kHashModulo))
    ->Arg(int(core::PlacementPolicy::kRendezvous))
    ->Arg(int(core::PlacementPolicy::kJump));

void BM_PlacementReplicaSet(benchmark::State& state) {
  core::Placement placement(1024, core::PlacementPolicy::kRendezvous, 3);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(placement.homes("f" + std::to_string(i++)));
  }
}
BENCHMARK(BM_PlacementReplicaSet);

void BM_EvictionInsertEvict(benchmark::State& state) {
  auto policy = core::make_eviction_policy(
      state.range(0) == 0 ? "random" : state.range(0) == 1 ? "fifo"
                                                           : "lru");
  uint64_t i = 0;
  for (auto _ : state) {
    const std::string key = "k" + std::to_string(i++ & 4095);
    policy->on_insert(key);
    policy->on_access(key);
    if ((i & 7) == 0) {
      if (auto victim = policy->select_victim()) {
        policy->on_evict(*victim);
      }
    }
  }
}
BENCHMARK(BM_EvictionInsertEvict)->Arg(0)->Arg(1)->Arg(2);

void BM_MpmcPushPop(benchmark::State& state) {
  MpmcQueue<uint64_t> queue(1024);
  uint64_t i = 0;
  for (auto _ : state) {
    (void)queue.try_push(i++);
    benchmark::DoNotOptimize(queue.try_pop());
  }
}
BENCHMARK(BM_MpmcPushPop);

void BM_WireEncodeOpenRequest(benchmark::State& state) {
  for (auto _ : state) {
    rpc::WireWriter w;
    w.put_string("class_0421/imagenet21k_00314159.bin");
    w.put_u64(1234567);
    w.put_u32(4096);
    benchmark::DoNotOptimize(w.bytes().data());
  }
}
BENCHMARK(BM_WireEncodeOpenRequest);

void BM_WireDecodeReadResponse(benchmark::State& state) {
  rpc::WireWriter w;
  std::vector<uint8_t> blob(size_t(state.range(0)));
  w.put_blob(blob.data(), blob.size());
  const rpc::Bytes frame = w.bytes();
  for (auto _ : state) {
    rpc::WireReader r(frame);
    benchmark::DoNotOptimize(r.get_blob());
  }
}
BENCHMARK(BM_WireDecodeReadResponse)->Arg(4096)->Arg(1 << 20);

// One barrier's size record per iteration: CRC plus the gathered
// pwritev of a payload-free {path, size} record into the page cache (no
// commit, so no fdatasync). The log is reset every 64 MiB, off the
// clock, to keep the file small.
void BM_JournalAppendSize(benchmark::State& state) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("hvac_bench_journal_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  auto journal = storage::WriteJournal::open((dir / "j.wal").string());
  if (!journal.ok()) {
    state.SkipWithError(journal.error().to_string().c_str());
    return;
  }
  uint64_t size = 0;
  for (auto _ : state) {
    size += 1u << 20;
    if (!(*journal)->append_size("ckpt/shard_0.bin", size).ok()) {
      state.SkipWithError("append_size failed");
      break;
    }
    if ((*journal)->size_bytes() >= (64u << 20)) {
      state.PauseTiming();
      (void)(*journal)->checkpoint_reset();
      state.ResumeTiming();
    }
  }
  journal->reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_JournalAppendSize);

uint64_t process_cpu_us() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return uint64_t(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1000000 +
         uint64_t(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// One cold epoch of the mover: the default four movers fetch 1,024
// unthrottled 256 KiB files through CacheManager into a fresh store on
// a root whose previous store has just purged its 1,024 entries (a new
// server per epoch, as in perfbench's cold_pfs). cpu_us_per_fetch is
// the process's user+sys CPU over the fetches; the purge runs off the
// clock.
void BM_ColdFetch(benchmark::State& state) {
  constexpr int kFiles = 1024;
  constexpr size_t kFileBytes = 256u << 10;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("hvac_bench_cold_" + std::to_string(::getpid()));
  const std::string pfs_root = (dir / "pfs").string();
  const std::string cache_root = (dir / "cache").string();
  std::filesystem::create_directories(pfs_root);
  std::vector<std::string> paths;
  std::vector<uint8_t> data(kFileBytes);
  for (int i = 0; i < kFiles; ++i) {
    std::fill(data.begin(), data.end(), uint8_t(i));
    paths.push_back("f" + std::to_string(i) + ".bin");
    if (!storage::write_file(pfs_root + "/" + paths.back(), data.data(),
                             data.size())
             .ok()) {
      state.SkipWithError("dataset write failed");
      return;
    }
  }
  storage::PfsBackend pfs(pfs_root);
  bool ok = true;
  auto epoch = [&](bool timed) {
    core::CacheManager cache(
        &pfs, std::make_unique<storage::LocalStore>(cache_root),
        core::make_eviction_policy("random"));
    core::DataMover mover(&cache);
    std::vector<std::shared_future<Result<bool>>> futures;
    futures.reserve(paths.size());
    const uint64_t cpu0 = process_cpu_us();
    for (const std::string& p : paths) futures.push_back(mover.submit(p));
    for (auto& f : futures) {
      const Result<bool>& r = f.get();
      if (!r.ok() || !*r) ok = false;
    }
    const uint64_t cpu = process_cpu_us() - cpu0;
    if (timed) state.PauseTiming();
    cache.purge();
    return cpu;
  };
  (void)epoch(false);  // the first predecessor
  uint64_t cpu_us = 0;
  for (auto _ : state) {
    cpu_us += epoch(true);
    state.ResumeTiming();
  }
  if (!ok) state.SkipWithError("a fetch failed");
  state.counters["cpu_us_per_fetch"] =
      double(cpu_us) / double(state.iterations() * kFiles);
  state.SetBytesProcessed(int64_t(state.iterations()) * kFiles * kFileBytes);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_ColdFetch)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(8)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
