// Tests for the storage substrate: RAII files, throttling, the
// GPFS-like PFS backend and the node-local store.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "common/env.h"
#include "storage/local_store.h"
#include "storage/open_handle_cache.h"
#include "storage/pfs_backend.h"
#include "storage/posix_file.h"
#include "storage/throttle.h"

namespace hvac::storage {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "hvac_storage_" + name +
                          "_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---- posix file ---------------------------------------------------------------

TEST(PosixFile, WriteReadRoundTrip) {
  const std::string dir = temp_dir("rt");
  const std::string path = dir + "/f.bin";
  std::vector<uint8_t> data{10, 20, 30, 40, 50};
  ASSERT_TRUE(write_file(path, data.data(), data.size()).ok());
  const auto back = read_file(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST(PosixFile, OpenMissingIsNotFound) {
  const auto f = PosixFile::open_read("/no/such/file/xyz");
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.error().code, ErrorCode::kNotFound);
}

TEST(PosixFile, PreadAtOffsets) {
  const std::string dir = temp_dir("pread");
  const std::string path = dir + "/f.bin";
  std::vector<uint8_t> data(1000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = uint8_t(i % 256);
  ASSERT_TRUE(write_file(path, data.data(), data.size()).ok());

  auto f = PosixFile::open_read(path);
  ASSERT_TRUE(f.ok());
  uint8_t buf[16];
  const auto n = f->pread(buf, sizeof(buf), 500);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 16u);
  EXPECT_EQ(buf[0], 500 % 256);
  // Reading past EOF returns 0.
  EXPECT_EQ(f->pread(buf, sizeof(buf), 5000).value(), 0u);
  EXPECT_EQ(f->size().value(), 1000u);
}

TEST(PosixFile, PwritevGathersAtOffset) {
  const std::string path = temp_dir("pwritev") + "/f.bin";
  auto f = PosixFile::open_rw(path);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(f->pwrite("0123456789", 10, 0).ok());
  char a[] = "ab";
  char b[] = "cde";
  const iovec iov[3] = {{a, 2}, {nullptr, 0}, {b, 3}};
  const auto n = f->pwritev(iov, 3, 4);
  ASSERT_TRUE(n.ok()) << n.error().to_string();
  EXPECT_EQ(*n, 5u);
  const auto back = read_file(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(std::string(back->begin(), back->end()), "0123abcde9");
}

// A file-size limit cuts the first pwritev short inside its second
// buffer; the resumed call then fails with EFBIG, which must surface
// as an error with the written prefix intact.
TEST(PosixFile, PwritevResumesShortWriteThenReportsError) {
  const std::string path = temp_dir("pwritev_short") + "/f.bin";
  auto f = PosixFile::open_rw(path);
  ASSERT_TRUE(f.ok());
  char a[] = "AAAAAAAA";
  char b[] = "BBBBBBBB";
  const iovec iov[2] = {{a, 8}, {b, 8}};
  rlimit old{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &old), 0);
  auto* old_handler = std::signal(SIGXFSZ, SIG_IGN);
  rlimit cap = old;
  cap.rlim_cur = 11;
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &cap), 0);
  const auto n = f->pwritev(iov, 2, 0);
  ::setrlimit(RLIMIT_FSIZE, &old);
  std::signal(SIGXFSZ, old_handler);
  ASSERT_FALSE(n.ok());
  const auto back = read_file(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(std::string(back->begin(), back->end()), "AAAAAAAABBB");
}

TEST(PosixFile, CopyContents) {
  const std::string dir = temp_dir("copy");
  std::vector<uint8_t> data(300000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = uint8_t(i * 7 + i / 251);
  ASSERT_TRUE(write_file(dir + "/src.bin", data.data(), data.size()).ok());
  // The kernel copy and the buffered fallback produce the same bytes,
  // for the whole file and for a range clamped at EOF, and neither
  // moves the source's file offset.
  for (const bool kernel : {true, false}) {
    auto in = PosixFile::open_read(dir + "/src.bin");
    ASSERT_TRUE(in.ok());
    auto whole = PosixFile::create_write(dir + "/whole.bin");
    ASSERT_TRUE(whole.ok());
    const auto n = copy_range(*in, 0, UINT64_MAX, *whole, kernel);
    ASSERT_TRUE(n.ok()) << n.error().message;
    EXPECT_EQ(*n, data.size());
    ASSERT_TRUE(whole->close().ok());
    EXPECT_EQ(read_file(dir + "/whole.bin").value(), data);

    auto tail = PosixFile::create_write(dir + "/tail.bin");
    ASSERT_TRUE(tail.ok());
    const uint64_t offset = 200000;
    const auto m = copy_range(*in, offset, 1u << 20, *tail, kernel);
    ASSERT_TRUE(m.ok()) << m.error().message;
    EXPECT_EQ(*m, data.size() - offset);
    ASSERT_TRUE(tail->close().ok());
    EXPECT_EQ(read_file(dir + "/tail.bin").value(),
              std::vector<uint8_t>(data.begin() + offset, data.end()));

    uint8_t first = 0;
    ASSERT_EQ(in->read(&first, 1).value(), 1u);
    EXPECT_EQ(first, data[0]);
  }
}

TEST(PosixFile, MakeDirectoriesIdempotent) {
  const std::string dir = temp_dir("mkdir");
  EXPECT_TRUE(make_directories(dir + "/a/b/c").ok());
  EXPECT_TRUE(make_directories(dir + "/a/b/c").ok());
  EXPECT_TRUE(fs::is_directory(dir + "/a/b/c"));
}

TEST(PosixFile, RemoveMissingFileIsOk) {
  EXPECT_TRUE(remove_file("/tmp/definitely_not_here_12345").ok());
}

TEST(PosixFile, FileExistsAndSize) {
  const std::string dir = temp_dir("exists");
  EXPECT_FALSE(file_exists(dir + "/f"));
  uint8_t b = 1;
  ASSERT_TRUE(write_file(dir + "/f", &b, 1).ok());
  EXPECT_TRUE(file_exists(dir + "/f"));
  EXPECT_EQ(file_size(dir + "/f").value(), 1u);
  EXPECT_FALSE(file_exists(dir));  // directories are not regular files
}

// ---- throttle ------------------------------------------------------------------

TEST(TokenBucket, UnthrottledNeverWaits) {
  TokenBucket bucket(0.0, 1);
  EXPECT_DOUBLE_EQ(bucket.would_wait_seconds(1u << 30), 0.0);
  bucket.acquire(1u << 30);  // returns immediately
}

TEST(TokenBucket, BurstThenDebt) {
  TokenBucket bucket(1e6, 1e6);  // 1 MB/s, 1 MB burst
  EXPECT_DOUBLE_EQ(bucket.would_wait_seconds(500000), 0.0);
  bucket.acquire(1000000);  // spends the burst
  const double wait = bucket.would_wait_seconds(1000000);
  EXPECT_GT(wait, 0.5);
  EXPECT_LE(wait, 1.1);
}

TEST(TokenBucket, MetersThroughput) {
  TokenBucket bucket(10e6, 1e4);  // 10 MB/s, small burst
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) bucket.acquire(100000);  // 1 MB total
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  EXPECT_GT(secs, 0.06);  // ~0.1 s ideal; allow scheduling slop
  EXPECT_LT(secs, 0.5);
}

TEST(LatencyInjector, ZeroIsFree) {
  LatencyInjector inj(0, 0, 1);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 1000; ++i) inj.inject();
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  EXPECT_LT(ms, 50.0);
}

TEST(LatencyInjector, InjectsApproximateBase) {
  LatencyInjector inj(2000, 500, 7);  // 2 ms +/- 0.5 ms
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) inj.inject();
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  EXPECT_GT(ms, 10.0);
}

// ---- pfs backend ----------------------------------------------------------------

TEST(PfsBackend, ReadAllMatchesDisk) {
  const std::string root = temp_dir("pfs1");
  std::vector<uint8_t> data(5000, 0xab);
  ASSERT_TRUE(write_file(root + "/d/f.bin", data.data(), data.size()).ok());
  PfsBackend pfs(root);  // no throttling
  const auto back = pfs.read_all("d/f.bin");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
  EXPECT_EQ(pfs.bytes_read(), 5000u);
  EXPECT_GE(pfs.metadata_ops(), 1u);
}

TEST(PfsBackend, MissingFileError) {
  PfsBackend pfs(temp_dir("pfs2"));
  EXPECT_FALSE(pfs.read_all("nope.bin").ok());
  EXPECT_FALSE(pfs.size_of("nope.bin").ok());
  EXPECT_FALSE(pfs.exists("nope.bin"));
}

TEST(PfsBackend, CopyOutChargesAndCopies) {
  const std::string root = temp_dir("pfs3");
  const std::string out = temp_dir("pfs3out");
  std::vector<uint8_t> data(12345, 3);
  ASSERT_TRUE(write_file(root + "/f.bin", data.data(), data.size()).ok());
  PfsBackend pfs(root);
  const auto n = pfs.copy_out("f.bin", out + "/f.copy");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, data.size());
  EXPECT_EQ(pfs.bytes_read(), data.size());
  EXPECT_EQ(read_file(out + "/f.copy").value(), data);
}

TEST(PfsBackend, MetadataLatencySlowsOpens) {
  const std::string root = temp_dir("pfs4");
  uint8_t b = 1;
  ASSERT_TRUE(write_file(root + "/f.bin", &b, 1).ok());
  PfsOptions slow;
  slow.metadata_latency_us = 3000;
  PfsBackend pfs(root, slow);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(pfs.open("f.bin").ok());
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  EXPECT_GT(ms, 12.0);
  EXPECT_EQ(pfs.metadata_ops(), 5u);
}

TEST(PfsBackend, AbsolutePathPassthrough) {
  const std::string root = temp_dir("pfs5");
  PfsBackend pfs(root);
  EXPECT_EQ(pfs.absolute("a/b.bin"), root + "/a/b.bin");
  EXPECT_EQ(pfs.absolute("/already/abs"), "/already/abs");
}

// ---- local store -----------------------------------------------------------------

TEST(LocalStore, InsertOpenEvict) {
  const std::string root = temp_dir("store1");
  LocalStore store(root);
  const std::string logical = "class_1/a.bin";
  std::vector<uint8_t> data(100, 9);
  ASSERT_TRUE(write_file(store.physical_path(logical), data.data(),
                         data.size())
                  .ok());
  ASSERT_TRUE(store.insert(logical, data.size()).ok());
  EXPECT_TRUE(store.contains(logical));
  EXPECT_EQ(store.bytes_used(), 100u);
  EXPECT_EQ(store.entry_count(), 1u);

  auto f = store.open(logical);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->size().value(), 100u);

  EXPECT_EQ(store.evict(logical).value(), 100u);
  EXPECT_FALSE(store.contains(logical));
  EXPECT_EQ(store.bytes_used(), 0u);
  EXPECT_FALSE(file_exists(store.physical_path(logical)));
}

TEST(LocalStore, OpenUncachedIsNotFound) {
  LocalStore store(temp_dir("store2"));
  const auto f = store.open("missing");
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.error().code, ErrorCode::kNotFound);
  EXPECT_FALSE(store.evict("missing").ok());
}

TEST(LocalStore, CapacityEnforced) {
  LocalStore store(temp_dir("store3"), 250);
  EXPECT_TRUE(store.insert("a", 100).ok());
  EXPECT_TRUE(store.insert("b", 100).ok());
  const Status s = store.insert("c", 100);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::kCapacity);
  EXPECT_EQ(store.bytes_used(), 200u);
}

TEST(LocalStore, InsertIdempotent) {
  LocalStore store(temp_dir("store4"));
  EXPECT_TRUE(store.insert("a", 100).ok());
  EXPECT_TRUE(store.insert("a", 100).ok());
  EXPECT_EQ(store.bytes_used(), 100u);
  EXPECT_EQ(store.entry_count(), 1u);
}

TEST(LocalStore, PurgeRemovesEverything) {
  const std::string root = temp_dir("store5");
  LocalStore store(root);
  for (int i = 0; i < 10; ++i) {
    const std::string logical = "f" + std::to_string(i);
    uint8_t b = 1;
    ASSERT_TRUE(
        write_file(store.physical_path(logical), &b, 1).ok());
    ASSERT_TRUE(store.insert(logical, 1).ok());
  }
  EXPECT_EQ(store.entry_count(), 10u);
  store.purge();
  EXPECT_EQ(store.entry_count(), 0u);
  EXPECT_EQ(store.bytes_used(), 0u);
  size_t remaining = 0;
  for (const auto& e : fs::directory_iterator(root)) {
    (void)e;
    ++remaining;
  }
  EXPECT_EQ(remaining, 0u);
}

TEST(LocalStore, PhysicalPathsFlatAndDistinct) {
  LocalStore store(temp_dir("store6"));
  const std::string p1 = store.physical_path("a/b/c.bin");
  const std::string p2 = store.physical_path("a/b/d.bin");
  EXPECT_NE(p1, p2);
  // Flat: no logical directory components leak into the cache dir.
  EXPECT_EQ(p1.find("a/b"), std::string::npos);
}

TEST(LocalStore, LogicalPathsSnapshot) {
  LocalStore store(temp_dir("store7"));
  ASSERT_TRUE(store.insert("x", 1).ok());
  ASSERT_TRUE(store.insert("y", 2).ok());
  auto paths = store.logical_paths();
  std::sort(paths.begin(), paths.end());
  EXPECT_EQ(paths, (std::vector<std::string>{"x", "y"}));
}

// ---- open-handle cache ---------------------------------------------------

// Writes `n` small distinct files into `dir`, returns their paths.
std::vector<std::string> make_files(const std::string& dir, size_t n) {
  std::vector<std::string> paths;
  for (size_t i = 0; i < n; ++i) {
    const std::string p = dir + "/f" + std::to_string(i) + ".bin";
    std::vector<uint8_t> data(64, uint8_t('a' + i));
    EXPECT_TRUE(write_file(p, data.data(), data.size()).ok());
    paths.push_back(p);
  }
  return paths;
}

TEST(OpenHandleCache, HitMissAccountingAndLruBound) {
  const std::string dir = temp_dir("ohc1");
  const auto files = make_files(dir, 4);
  OpenHandleCache cache(2);
  ASSERT_TRUE(cache.enabled());

  // Two distinct keys: miss then hit.
  ASSERT_TRUE(cache.acquire("k0", files[0]).ok());
  ASSERT_TRUE(cache.acquire("k0", files[0]).ok());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);

  // Filling past capacity evicts the least-recently-used handle.
  ASSERT_TRUE(cache.acquire("k1", files[1]).ok());
  ASSERT_TRUE(cache.acquire("k2", files[2]).ok());
  EXPECT_EQ(cache.open_handles(), 2u);
  // k0 was evicted; touching it again is a fresh miss.
  ASSERT_TRUE(cache.acquire("k0", files[0]).ok());
  EXPECT_EQ(cache.misses(), 4u);
}

TEST(OpenHandleCache, DisabledOpensOneShotHandles) {
  const std::string dir = temp_dir("ohc2");
  const auto files = make_files(dir, 1);
  OpenHandleCache cache(0);
  EXPECT_FALSE(cache.enabled());
  auto pin = cache.acquire("k", files[0]);
  ASSERT_TRUE(pin.ok());
  uint8_t buf[8];
  EXPECT_EQ(pin->pread(buf, sizeof(buf), 0).value(), 8u);
  EXPECT_EQ(buf[0], 'a');
  EXPECT_EQ(cache.open_handles(), 0u);  // never indexed
}

TEST(OpenHandleCache, PinSurvivesInvalidate) {
  const std::string dir = temp_dir("ohc3");
  const auto files = make_files(dir, 1);
  OpenHandleCache cache(4);
  auto pin = cache.acquire("k", files[0]);
  ASSERT_TRUE(pin.ok());
  EXPECT_EQ(cache.pinned_handles(), 1u);

  cache.invalidate("k");
  EXPECT_EQ(cache.open_handles(), 0u);
  // The pinned handle still reads fine — the fd closes when the pin
  // drops, not when the index entry goes.
  uint8_t buf[16];
  EXPECT_EQ(pin->pread(buf, sizeof(buf), 0).value(), 16u);
  EXPECT_EQ(buf[0], 'a');
}

TEST(OpenHandleCache, EvictionSkipsPinnedEntries) {
  const std::string dir = temp_dir("ohc4");
  const auto files = make_files(dir, 3);
  OpenHandleCache cache(1);
  auto pinned = cache.acquire("k0", files[0]);
  ASSERT_TRUE(pinned.ok());
  // k1/k2 push the cache over budget; the pinned k0 must not be
  // churned, so the index transiently holds the pinned entry plus the
  // newest one.
  ASSERT_TRUE(cache.acquire("k1", files[1]).ok());
  ASSERT_TRUE(cache.acquire("k2", files[2]).ok());
  EXPECT_EQ(cache.pinned_handles(), 1u);
  ASSERT_TRUE(cache.acquire("k0", files[0]).ok());
  EXPECT_EQ(cache.hits(), 1u);  // k0 stayed resident while pinned
}

// The TSAN target: readers pread through pins while another thread
// storms invalidate()/clear() over the same keys. The deferred-close
// contract means no read ever races a close.
TEST(OpenHandleCache, ConcurrentEvictVsPinnedRead) {
  const std::string dir = temp_dir("ohc5");
  constexpr size_t kFiles = 8;
  const auto files = make_files(dir, kFiles);
  OpenHandleCache cache(2);  // tiny: constant eviction pressure

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const size_t idx = size_t(t + i) % kFiles;
        auto pin = cache.acquire("k" + std::to_string(idx), files[idx]);
        if (!pin.ok()) {
          ++read_errors;
          continue;
        }
        uint8_t buf[64];
        const auto n = pin->pread(buf, sizeof(buf), 0);
        if (!n.ok() || *n != 64u || buf[0] != uint8_t('a' + idx)) {
          ++read_errors;
        }
      }
    });
  }
  std::thread evictor([&] {
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      cache.invalidate("k" + std::to_string(i % kFiles));
      if (i % 64 == 0) cache.clear();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (auto& th : readers) th.join();
  evictor.join();

  EXPECT_EQ(read_errors.load(), 0u);
  EXPECT_EQ(cache.pinned_handles(), 0u);
}

TEST(LocalStore, OpenPinnedReadsAndEvictInvalidatesHandle) {
  const std::string root = temp_dir("store8");
  LocalStore store(root, /*capacity_bytes=*/0, /*handle_cache_slots=*/8);
  std::vector<uint8_t> data(128, 0x42);
  ASSERT_TRUE(
      write_file(store.physical_path("a"), data.data(), data.size()).ok());
  ASSERT_TRUE(store.insert("a", data.size()).ok());

  auto pin = store.open_pinned("a");
  ASSERT_TRUE(pin.ok());
  uint8_t buf[128];
  EXPECT_EQ(pin->pread(buf, sizeof(buf), 0).value(), 128u);
  EXPECT_EQ(store.handle_cache().open_handles(), 1u);

  // Evicting the entry drops the cached handle; the held pin still
  // reads (fail-open for in-flight requests).
  ASSERT_TRUE(store.evict("a").ok());
  EXPECT_EQ(store.handle_cache().open_handles(), 0u);
  EXPECT_EQ(pin->pread(buf, sizeof(buf), 64).value(), 64u);

  // A fresh open_pinned after eviction reports kNotFound.
  EXPECT_EQ(store.open_pinned("a").error().code, ErrorCode::kNotFound);
}

TEST(LocalStore, PurgeClearsHandleCache) {
  const std::string root = temp_dir("store9");
  LocalStore store(root, 0, 8);
  std::vector<uint8_t> data(32, 1);
  ASSERT_TRUE(
      write_file(store.physical_path("a"), data.data(), data.size()).ok());
  ASSERT_TRUE(store.insert("a", data.size()).ok());
  ASSERT_TRUE(store.open_pinned("a").ok());
  EXPECT_EQ(store.handle_cache().open_handles(), 1u);
  store.purge();
  EXPECT_EQ(store.handle_cache().open_handles(), 0u);
}

}  // namespace
}  // namespace hvac::storage
