// Tests for the storage substrate: RAII files, throttling, the
// GPFS-like PFS backend and the node-local store.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <optional>
#include <thread>

#include "common/env.h"
#include "storage/local_store.h"
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

// ---- resident fds --------------------------------------------------------

// Writes `size` bytes of `fill` as the cached copy of `logical`.
void put_cached(LocalStore& store, const std::string& logical, size_t size,
                uint8_t fill) {
  std::vector<uint8_t> data(size, fill);
  ASSERT_TRUE(write_file(store.physical_path(logical), data.data(),
                         data.size())
                  .ok());
}

bool fd_closed(int fd) { return ::fcntl(fd, F_GETFD) == -1 && errno == EBADF; }

TEST(LocalStore, OpenPinnedReadsAndEvictInvalidatesHandle) {
  const std::string root = temp_dir("store8");
  LocalStore store(root);
  put_cached(store, "a", 128, 0x42);
  ASSERT_TRUE(store.insert("a", 128).ok());

  auto pin = store.open_pinned("a");
  ASSERT_TRUE(pin.ok());
  uint8_t buf[128];
  EXPECT_EQ(pin->pread(buf, sizeof(buf), 0).value(), 128u);
  EXPECT_EQ(store.fd_stats().open, 1u);
  EXPECT_EQ(store.fd_stats().hits, 1u);
  EXPECT_EQ(store.fd_stats().misses, 0u);

  // Evicting the entry drops the store's fd; the held pin still reads
  // (fail-open for in-flight requests).
  ASSERT_TRUE(store.evict("a").ok());
  EXPECT_EQ(store.fd_stats().open, 0u);
  EXPECT_EQ(pin->pread(buf, sizeof(buf), 64).value(), 64u);

  // A fresh open_pinned after eviction reports kNotFound.
  EXPECT_EQ(store.open_pinned("a").error().code, ErrorCode::kNotFound);
}

TEST(LocalStore, PurgeClearsHandleCache) {
  const std::string root = temp_dir("store9");
  LocalStore store(root);
  put_cached(store, "a", 32, 1);
  ASSERT_TRUE(store.insert("a", 32).ok());
  ASSERT_TRUE(store.open_pinned("a").ok());
  EXPECT_EQ(store.fd_stats().open, 1u);
  store.purge();
  EXPECT_EQ(store.fd_stats().open, 0u);
}

// The data mover hands its copy's fd to insert(); hits serve from that
// very fd, so a fetch costs no second open.
TEST(LocalStore, InsertKeepsTheHandedFd) {
  const std::string root = temp_dir("store10");
  LocalStore store(root);
  auto out = PosixFile::create_write(store.physical_path("a"));
  ASSERT_TRUE(out.ok());
  const int fd = out->fd();
  std::vector<uint8_t> data(100, 7);
  ASSERT_TRUE(out->write(data.data(), data.size()).ok());
  ASSERT_TRUE(store.insert("a", data.size(), 0, std::move(out).value()).ok());

  auto pin = store.open_pinned("a");
  ASSERT_TRUE(pin.ok());
  EXPECT_EQ(pin->file().fd(), fd);
  uint8_t buf[100];
  EXPECT_EQ(pin->pread(buf, sizeof(buf), 0).value(), 100u);
  EXPECT_EQ(buf[99], 7);

  // A second insert of the same path is idempotent and closes its fd.
  auto dup = PosixFile::open_read(store.physical_path("a"));
  ASSERT_TRUE(dup.ok());
  const int dup_fd = dup->fd();
  ASSERT_TRUE(store.insert("a", data.size(), 0, std::move(dup).value()).ok());
  EXPECT_TRUE(fd_closed(dup_fd));
  EXPECT_EQ(store.fd_stats().open, 1u);
}

TEST(LocalStore, PinnedReadSurvivesEvictAndPurgeUntilLastUnpin) {
  const std::string root = temp_dir("store11");
  LocalStore store(root);
  for (const char* key : {"a", "b"}) {
    put_cached(store, key, 64, uint8_t(key[0]));
    ASSERT_TRUE(store.insert(key, 64).ok());
  }
  uint8_t buf[64];

  // evict: two pins share the fd; it closes only when both are gone.
  std::optional<LocalStore::Pin> first = store.open_pinned("a").value();
  std::optional<LocalStore::Pin> second = store.open_pinned("a").value();
  const int fd_a = first->file().fd();
  EXPECT_EQ(second->file().fd(), fd_a);
  EXPECT_EQ(store.fd_stats().pinned, 1u);
  ASSERT_TRUE(store.evict("a").ok());
  EXPECT_EQ(store.fd_stats().deferred_closes, 1u);
  EXPECT_EQ(first->pread(buf, sizeof(buf), 0).value(), 64u);
  EXPECT_EQ(buf[0], 'a');
  first.reset();
  EXPECT_FALSE(fd_closed(fd_a));
  EXPECT_EQ(second->pread(buf, sizeof(buf), 0).value(), 64u);
  second.reset();
  EXPECT_TRUE(fd_closed(fd_a));

  // purge: same contract.
  std::optional<LocalStore::Pin> pin = store.open_pinned("b").value();
  const int fd_b = pin->file().fd();
  store.purge();
  EXPECT_EQ(store.fd_stats().deferred_closes, 2u);
  EXPECT_EQ(store.fd_stats().pinned, 0u);
  EXPECT_EQ(pin->pread(buf, sizeof(buf), 0).value(), 64u);
  EXPECT_EQ(buf[0], 'b');
  EXPECT_FALSE(fd_closed(fd_b));
  pin.reset();
  EXPECT_TRUE(fd_closed(fd_b));
}

// The TSAN target: readers pread through pins while another thread
// storms evict()/purge() and re-inserts over the same keys. A pin owns
// its fd, so no read ever races a close.
TEST(LocalStore, ConcurrentEvictVsPinnedReads) {
  const std::string root = temp_dir("store12");
  LocalStore store(root);
  constexpr size_t kFiles = 8;
  auto key = [](size_t i) { return "k" + std::to_string(i); };
  for (size_t i = 0; i < kFiles; ++i) {
    put_cached(store, key(i), 64, uint8_t('a' + i));
    ASSERT_TRUE(store.insert(key(i), 64).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_errors{0};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const size_t idx = (t + i) % kFiles;
        auto pin = store.open_pinned(key(idx));
        if (!pin.ok()) {
          if (pin.error().code != ErrorCode::kNotFound) ++read_errors;
          continue;
        }
        uint8_t buf[64];
        const auto n = pin->pread(buf, sizeof(buf), 0);
        if (!n.ok() || *n != 64u || buf[0] != uint8_t('a' + idx)) {
          ++read_errors;
        }
        ++reads;
      }
    });
  }
  std::thread evictor([&] {
    for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      const size_t idx = i % kFiles;
      if (i % 64 == 63) {
        store.purge();
      } else {
        (void)store.evict(key(idx));
      }
      // Re-cache the evicted files: a new copy, then a new entry.
      for (size_t j = 0; j < kFiles; ++j) {
        if (store.contains(key(j))) continue;
        put_cached(store, key(j), 64, uint8_t('a' + j));
        (void)store.insert(key(j), 64);
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (auto& th : readers) th.join();
  evictor.join();

  EXPECT_EQ(read_errors.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(store.fd_stats().pinned, 0u);
  EXPECT_EQ(store.fd_stats().open, store.entry_count());
}

TEST(LocalStore, ZeroFdBudgetServesPerRequestOpens) {
  const std::string root = temp_dir("store13");
  LocalStore store(root, /*capacity_bytes=*/0, /*fd_budget=*/0);
  put_cached(store, "a", 48, 'z');
  auto out = PosixFile::open_read(store.physical_path("a"));
  ASSERT_TRUE(out.ok());
  const int handed = out->fd();
  ASSERT_TRUE(store.insert("a", 48, 0, std::move(out).value()).ok());
  EXPECT_TRUE(fd_closed(handed));  // over budget: not kept

  for (int round = 0; round < 2; ++round) {
    auto pin = store.open_pinned("a");
    ASSERT_TRUE(pin.ok());
    uint8_t buf[48];
    EXPECT_EQ(pin->pread(buf, sizeof(buf), 0).value(), 48u);
    EXPECT_EQ(buf[47], 'z');
    EXPECT_EQ(pin->size().value(), 48u);
  }
  const LocalStore::FdStats stats = store.fd_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.open, 0u);
  EXPECT_EQ(stats.budget, 0u);
}

TEST(LocalStore, FdBudgetCapsHeldFds) {
  const std::string root = temp_dir("store14");
  LocalStore store(root, 0, /*fd_budget=*/1);
  for (const char* key : {"a", "b"}) {
    put_cached(store, key, 16, uint8_t(key[0]));
    ASSERT_TRUE(store.insert(key, 16).ok());
  }
  EXPECT_EQ(store.fd_stats().open, 1u);
  ASSERT_TRUE(store.open_pinned("a").ok());
  ASSERT_TRUE(store.open_pinned("b").ok());
  EXPECT_EQ(store.fd_stats().hits, 1u);
  EXPECT_EQ(store.fd_stats().misses, 1u);
  // Evicting the entry with the fd frees its slot for the next insert.
  ASSERT_TRUE(store.evict("a").ok());
  put_cached(store, "c", 16, 'c');
  ASSERT_TRUE(store.insert("c", 16).ok());
  EXPECT_EQ(store.fd_stats().open, 1u);
  ASSERT_TRUE(store.open_pinned("c").ok());
  EXPECT_EQ(store.fd_stats().hits, 2u);
}

TEST(LocalStore, EmfileAtInsertKeepsEntryWithoutFd) {
  const std::string root = temp_dir("store15");
  LocalStore store(root);
  put_cached(store, "a", 40, 'e');

  // Cap the fd table at its lowest free slot: the open inside insert()
  // fails with EMFILE.
  rlimit old{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old), 0);
  const int lowest_free = ::dup(0);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit cap = old;
  cap.rlim_cur = static_cast<rlim_t>(lowest_free);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &cap), 0);
  const Status inserted = store.insert("a", 40);
  const int probe = ::open(store.physical_path("a").c_str(), O_RDONLY);
  const int probe_errno = errno;
  ::setrlimit(RLIMIT_NOFILE, &old);
  ASSERT_TRUE(inserted.ok());
  ASSERT_EQ(probe, -1);
  EXPECT_EQ(probe_errno, EMFILE);
  EXPECT_EQ(store.fd_stats().open, 0u);

  auto pin = store.open_pinned("a");
  ASSERT_TRUE(pin.ok());
  uint8_t buf[40];
  EXPECT_EQ(pin->pread(buf, sizeof(buf), 0).value(), 40u);
  EXPECT_EQ(buf[0], 'e');
  EXPECT_EQ(store.fd_stats().misses, 1u);
}

// The write path grows a file through its own read-write fd and then
// records the size; a pin (per-read fd, or the entry's own) sees both.
TEST(LocalStore, GrownFileReadsBackThroughOpenPinned) {
  const std::string root = temp_dir("store16");
  LocalStore store(root);
  put_cached(store, "cached", 10, 'c');
  ASSERT_TRUE(store.insert("cached", 10).ok());

  for (const std::string key : {"fresh", "cached"}) {
    auto w = store.open_write(key);
    ASSERT_TRUE(w.ok());
    std::vector<uint8_t> tail(300, 'w');
    ASSERT_TRUE(w->pwrite(tail.data(), tail.size(), 10).ok());
    ASSERT_TRUE(store.update_size(key, 310).ok());

    auto pin = store.open_pinned(key);
    ASSERT_TRUE(pin.ok()) << key;
    EXPECT_EQ(pin->size().value(), 310u) << key;
    std::vector<uint8_t> back(310);
    EXPECT_EQ(pin->pread(back.data(), back.size(), 0).value(), 310u);
    EXPECT_EQ(back[0], key == "cached" ? 'c' : 0) << key;
    EXPECT_EQ(back[309], 'w') << key;
  }
  EXPECT_EQ(store.bytes_used(), 620u);
}

}  // namespace
}  // namespace hvac::storage
