// Microbenchmarks (google-benchmark) for the hot primitives: stable
// hashing, the three placement policies, eviction bookkeeping, the
// MPMC queue, wire serialization and the write-ahead journal append.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <vector>

#include "common/hash.h"
#include "common/mpmc_queue.h"
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

// One kWrite record per iteration: CRC plus the gathered pwritev into
// the page cache (no commit, so no fdatasync). The log is reset every
// 64 MiB, off the clock, to keep the file small.
void BM_JournalAppendWrite(benchmark::State& state) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("hvac_bench_journal_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  auto journal = storage::WriteJournal::open((dir / "j.wal").string());
  if (!journal.ok()) {
    state.SkipWithError(journal.error().to_string().c_str());
    return;
  }
  const std::vector<uint8_t> data(size_t(state.range(0)), 0x5A);
  uint64_t offset = 0;
  for (auto _ : state) {
    if (!(*journal)->append_write("ckpt/shard_0.bin", offset, data.data(),
                                  data.size()).ok()) {
      state.SkipWithError("append_write failed");
      break;
    }
    offset += data.size();
    if ((*journal)->size_bytes() >= (64u << 20)) {
      state.PauseTiming();
      (void)(*journal)->checkpoint_reset();
      state.ResumeTiming();
    }
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
  journal->reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_JournalAppendWrite)->Arg(4096)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
