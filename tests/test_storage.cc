// Tests for the storage substrate: RAII files, throttling, the
// GPFS-like PFS backend and the node-local store.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <optional>
#include <set>
#include <thread>

#include "common/env.h"
#include "core/cache_manager.h"
#include "core/eviction.h"
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
    const auto n = copy_range(*in, 0, UINT64_MAX, *whole, 0, kernel);
    ASSERT_TRUE(n.ok()) << n.error().message;
    EXPECT_EQ(*n, data.size());
    ASSERT_TRUE(whole->close().ok());
    EXPECT_EQ(read_file(dir + "/whole.bin").value(), data);

    auto tail = PosixFile::create_write(dir + "/tail.bin");
    ASSERT_TRUE(tail.ok());
    const uint64_t offset = 200000;
    const auto m = copy_range(*in, offset, 1u << 20, *tail, 0, kernel);
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

// Both the kernel copy and the fallback land at the destination
// offset, leave the bytes around it alone, and move no file offset.
TEST(PosixFile, CopyRangeAtDestinationOffset) {
  const std::string dir = temp_dir("copy_at");
  std::vector<uint8_t> data(100000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = uint8_t(i * 13 + 5);
  ASSERT_TRUE(write_file(dir + "/src.bin", data.data(), data.size()).ok());
  for (const bool kernel : {true, false}) {
    auto in = PosixFile::open_read(dir + "/src.bin");
    ASSERT_TRUE(in.ok());
    const std::string dst = dir + (kernel ? "/k.bin" : "/u.bin");
    auto out = PosixFile::create_write(dst);
    ASSERT_TRUE(out.ok());
    const std::vector<uint8_t> head(8192, 0xEE);
    ASSERT_TRUE(out->pwrite(head.data(), head.size(), 0).ok());
    const auto n = copy_range(*in, 1000, 50000, *out, 8192, kernel);
    ASSERT_TRUE(n.ok()) << n.error().message;
    EXPECT_EQ(*n, 50000u);
    // A second copy past the first, clamped at the source's EOF.
    const auto m = copy_range(*in, 90000, 50000, *out, 65536, kernel);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(*m, 10000u);
    uint8_t first = 0;
    ASSERT_EQ(out->read(&first, 1).value(), 1u);  // offset still 0
    EXPECT_EQ(first, 0xEE);
    ASSERT_TRUE(out->close().ok());
    const std::vector<uint8_t> got = read_file(dst).value();
    ASSERT_EQ(got.size(), 65536u + 10000u);
    EXPECT_TRUE(std::equal(head.begin(), head.end(), got.begin()));
    EXPECT_TRUE(std::equal(data.begin() + 1000, data.begin() + 51000,
                           got.begin() + 8192));
    EXPECT_TRUE(std::equal(data.begin() + 90000, data.end(),
                           got.begin() + 65536));
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

// The fd form copies a range to a destination offset and charges the
// bandwidth for every byte, without a second metadata op.
TEST(PfsBackend, CopyOutAtDestinationOffset) {
  const std::string root = temp_dir("pfs6");
  const std::string out = temp_dir("pfs6out");
  std::vector<uint8_t> data(20000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = uint8_t(i % 251);
  ASSERT_TRUE(write_file(root + "/f.bin", data.data(), data.size()).ok());
  PfsBackend pfs(root);
  auto src = pfs.open("f.bin");
  ASSERT_TRUE(src.ok());
  auto dst = PosixFile::create_write(out + "/slab");
  ASSERT_TRUE(dst.ok());
  const auto a = pfs.copy_out(*src, *dst, 0, UINT64_MAX, 4096);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, data.size());
  const auto b = pfs.copy_out(*src, *dst, 5000, 3000, 28672);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, 3000u);
  EXPECT_EQ(pfs.bytes_read(), data.size() + 3000u);
  EXPECT_EQ(pfs.metadata_ops(), 1u);
  std::vector<uint8_t> back(data.size());
  ASSERT_EQ(dst->pread(back.data(), back.size(), 4096).value(), back.size());
  EXPECT_EQ(back, data);
  ASSERT_EQ(dst->pread(back.data(), 3000, 28672).value(), 3000u);
  EXPECT_TRUE(std::equal(back.begin(), back.begin() + 3000,
                         data.begin() + 5000));
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

// Copies `size` bytes of `fill` into the store as `logical`, the way the
// data mover does: reserve, claim a slab slot, write it, insert.
void put_cached(LocalStore& store, const std::string& logical, size_t size,
                uint8_t fill) {
  ASSERT_TRUE(store.reserve(size).ok());
  auto slot = store.claim(size);
  ASSERT_TRUE(slot.ok()) << slot.error().to_string();
  std::vector<uint8_t> data(size, fill);
  ASSERT_TRUE(slot->file().pwrite(data.data(), size, slot->base()).ok());
  store.insert(logical, std::move(slot).value(), size);
}

std::vector<std::string> slab_files(const std::string& root) {
  std::vector<std::string> out;
  for (const auto& e : fs::directory_iterator(root)) {
    if (e.path().extension() == ".slab") out.push_back(e.path().string());
  }
  return out;
}

bool fd_closed(int fd) { return ::fcntl(fd, F_GETFD) == -1 && errno == EBADF; }

TEST(LocalStore, InsertOpenEvict) {
  const std::string root = temp_dir("store1");
  LocalStore store(root);
  const std::string logical = "class_1/a.bin";
  put_cached(store, logical, 100, 9);
  EXPECT_TRUE(store.contains(logical));
  EXPECT_EQ(store.bytes_used(), 100u);
  EXPECT_EQ(store.entry_count(), 1u);
  EXPECT_EQ(slab_files(root).size(), 1u);

  auto f = store.open(logical);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->size, 100u);
  uint8_t b = 0;
  EXPECT_EQ(f->file.pread(&b, 1, f->base + 99).value(), 1u);
  EXPECT_EQ(b, 9);
  EXPECT_EQ(store.cached_size(logical).value(), 100u);

  EXPECT_EQ(store.evict(logical).value(), 100u);
  EXPECT_FALSE(store.contains(logical));
  EXPECT_EQ(store.bytes_used(), 0u);
  EXPECT_TRUE(slab_files(root).empty());
}

TEST(LocalStore, OpenUncachedIsNotFound) {
  LocalStore store(temp_dir("store2"));
  const auto f = store.open("missing");
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.error().code, ErrorCode::kNotFound);
  EXPECT_FALSE(store.evict("missing").ok());
  EXPECT_TRUE(store.evict_slab("missing").empty());
  EXPECT_EQ(store.cached_size("missing").error().code, ErrorCode::kNotFound);
}

TEST(LocalStore, CapacityEnforced) {
  LocalStore store(temp_dir("store3"), 250);
  put_cached(store, "a", 100, 1);
  put_cached(store, "b", 100, 2);
  const Status s = store.reserve(100);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::kCapacity);
  EXPECT_EQ(store.bytes_used(), 200u);
}

TEST(LocalStore, InsertIdempotent) {
  LocalStore store(temp_dir("store4"));
  put_cached(store, "a", 100, 'x');
  put_cached(store, "a", 100, 'y');
  EXPECT_EQ(store.entry_count(), 1u);
  // The first copy stays; the second is dead space in the slab, which
  // counts (padding included) until the slab goes.
  uint8_t b = 0;
  EXPECT_EQ(store.open_pinned("a")->pread(&b, 1, 0).value(), 1u);
  EXPECT_EQ(b, 'x');
  EXPECT_EQ(store.bytes_used(), LocalStore::kSlotAlign + 100);
}

TEST(LocalStore, PurgeRemovesEverything) {
  const std::string root = temp_dir("store5");
  LocalStore store(root);
  for (int i = 0; i < 10; ++i) {
    put_cached(store, "f" + std::to_string(i), 1, 1);
  }
  auto named = store.open_write("ckpt");
  ASSERT_TRUE(named.ok());
  ASSERT_TRUE(named->pwrite("x", 1, 0).ok());
  ASSERT_TRUE(store.update_size("ckpt", 1).ok());
  EXPECT_EQ(store.entry_count(), 11u);
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
  put_cached(store, "x", 1, 1);
  put_cached(store, "y", 2, 2);
  auto paths = store.logical_paths();
  std::sort(paths.begin(), paths.end());
  EXPECT_EQ(paths, (std::vector<std::string>{"x", "y"}));
}

// ---- slabs and their fds ---------------------------------------------------

TEST(LocalStore, OpenPinnedReadsAndEvictInvalidatesHandle) {
  const std::string root = temp_dir("store8");
  LocalStore store(root);
  put_cached(store, "a", 128, 0x42);

  auto pin = store.open_pinned("a");
  ASSERT_TRUE(pin.ok());
  uint8_t buf[128];
  EXPECT_EQ(pin->pread(buf, sizeof(buf), 0).value(), 128u);
  EXPECT_EQ(store.fd_stats().open, 1u);
  EXPECT_EQ(store.fd_stats().hits, 1u);
  EXPECT_EQ(store.fd_stats().misses, 0u);

  // Evicting the slab's only entry drops the store's fd; the held pin
  // still reads (fail-open for in-flight requests).
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
  ASSERT_TRUE(store.open_pinned("a").ok());
  EXPECT_EQ(store.fd_stats().open, 1u);
  store.purge();
  EXPECT_EQ(store.fd_stats().open, 0u);
}

// The data mover copies into the slot's fd; hits on every entry of the
// slab serve from that very fd, so a fetch costs no open at all.
TEST(LocalStore, InsertKeepsTheHandedFd) {
  const std::string root = temp_dir("store10");
  LocalStore store(root);
  ASSERT_TRUE(store.reserve(100).ok());
  auto slot = store.claim(100);
  ASSERT_TRUE(slot.ok());
  const int fd = slot->file().fd();
  EXPECT_EQ(slot->base(), 0u);
  std::vector<uint8_t> data(100, 7);
  ASSERT_TRUE(slot->file().pwrite(data.data(), data.size(), 0).ok());
  store.insert("a", std::move(slot).value(), data.size());
  put_cached(store, "b", 10, 8);

  for (const char* key : {"a", "b"}) {
    auto pin = store.open_pinned(key);
    ASSERT_TRUE(pin.ok());
    EXPECT_EQ(pin->file().fd(), fd) << key;
  }
  auto b = store.open_pinned("b");
  EXPECT_EQ(b->base(), LocalStore::kSlotAlign);
  EXPECT_EQ(b->size(), 10u);
  uint8_t buf[100];
  // Clamped to the entry: never into the next slot.
  EXPECT_EQ(store.open_pinned("a")->pread(buf, sizeof(buf), 50).value(), 50u);
  EXPECT_EQ(buf[49], 7);
  EXPECT_EQ(b->pread(buf, sizeof(buf), 0).value(), 10u);
  EXPECT_EQ(buf[9], 8);
  EXPECT_EQ(store.fd_stats().open, 1u);
  EXPECT_EQ(slab_files(root).size(), 1u);
}

// One slab fills at a time: copies in flight at once take consecutive
// aligned slots of it, and a claim that does not fit seals it and
// starts the next.
TEST(LocalStore, ClaimsFillOneSlabAtATime) {
  const std::string root = temp_dir("store20");
  LocalStore store(root, /*capacity_bytes=*/16 * 64 * 1024);  // 64 KiB slabs
  ASSERT_EQ(store.slab_bytes(), 64u * 1024);
  std::vector<LocalStore::Slot> slots;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(store.reserve(10000).ok());
    slots.push_back(store.claim(10000).value());
  }
  for (size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i].file().fd(), slots[0].file().fd());
    EXPECT_EQ(slots[i].base(), i * 3 * LocalStore::kSlotAlign);
  }
  EXPECT_EQ(slab_files(root).size(), 1u);
  // 48 KiB in use: a 20,000-byte copy does not fit the 64 KiB slab.
  ASSERT_TRUE(store.reserve(20000).ok());
  slots.push_back(store.claim(20000).value());
  EXPECT_NE(slots.back().file().fd(), slots[0].file().fd());
  EXPECT_EQ(slots.back().base(), 0u);
  EXPECT_EQ(slab_files(root).size(), 2u);
  for (size_t i = 0; i < slots.size(); ++i) {
    const uint64_t length = slots[i].length();
    store.insert("k" + std::to_string(i), std::move(slots[i]), length);
  }
  EXPECT_EQ(store.reserved_bytes(), 0u);
  put_cached(store, "late", 100, 1);
  EXPECT_EQ(slab_files(root).size(), 2u);
  EXPECT_EQ(store.open_pinned("late")->base(), 20480u);
}

// Two entries share one slab: pin A, evict A and B, and A's bytes still
// read back through the pin from a slab that is still on disk; it goes
// with the last pin.
TEST(LocalStore, SlabOutlivesEvictionWhilePinned) {
  const std::string root = temp_dir("store17");
  LocalStore store(root);
  put_cached(store, "A", 5000, 'A');
  put_cached(store, "B", 3000, 'B');
  ASSERT_EQ(slab_files(root).size(), 1u);

  std::optional<LocalStore::Pin> pin = store.open_pinned("A").value();
  ASSERT_TRUE(store.evict("A").ok());
  ASSERT_TRUE(store.evict("B").ok());
  EXPECT_EQ(store.entry_count(), 0u);
  EXPECT_EQ(store.bytes_used(), 0u);
  EXPECT_EQ(slab_files(root).size(), 1u);
  std::vector<uint8_t> back(5000);
  EXPECT_EQ(pin->pread(back.data(), back.size(), 0).value(), 5000u);
  EXPECT_EQ(back, std::vector<uint8_t>(5000, 'A'));

  pin.reset();
  EXPECT_TRUE(slab_files(root).empty());
}

TEST(LocalStore, PinnedReadSurvivesEvictAndPurgeUntilLastUnpin) {
  const std::string root = temp_dir("store11");
  LocalStore store(root);
  put_cached(store, "a", 64, 'a');
  put_cached(store, "b", 64, 'b');
  uint8_t buf[64];

  // evict_slab: two pins share the fd; it closes only when both are
  // gone.
  std::optional<LocalStore::Pin> first = store.open_pinned("a").value();
  std::optional<LocalStore::Pin> second = store.open_pinned("a").value();
  const int fd_a = first->file().fd();
  EXPECT_EQ(second->file().fd(), fd_a);
  EXPECT_EQ(store.fd_stats().pinned, 1u);
  std::vector<std::string> dropped = store.evict_slab("a");
  std::sort(dropped.begin(), dropped.end());
  EXPECT_EQ(dropped, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(store.fd_stats().deferred_closes, 1u);
  EXPECT_EQ(first->pread(buf, sizeof(buf), 0).value(), 64u);
  EXPECT_EQ(buf[0], 'a');
  first.reset();
  EXPECT_FALSE(fd_closed(fd_a));
  EXPECT_EQ(second->pread(buf, sizeof(buf), 0).value(), 64u);
  second.reset();
  EXPECT_TRUE(fd_closed(fd_a));

  // purge: same contract.
  put_cached(store, "b", 64, 'b');
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
      } else if (i % 8 == 7) {
        (void)store.evict_slab(key(idx));
      } else {
        (void)store.evict(key(idx));
      }
      // Re-cache the evicted files: a new copy, then a new entry.
      for (size_t j = 0; j < kFiles; ++j) {
        if (store.contains(key(j))) continue;
        put_cached(store, key(j), 64, uint8_t('a' + j));
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
  // Every slab on disk is a live one holding its fd.
  EXPECT_EQ(store.fd_stats().open, slab_files(root).size());
}

TEST(LocalStore, ZeroFdBudgetServesPerRequestOpens) {
  const std::string root = temp_dir("store13");
  LocalStore store(root, /*capacity_bytes=*/0, /*fd_budget=*/0);
  put_cached(store, "a", 48, 'z');

  for (int round = 0; round < 2; ++round) {
    auto pin = store.open_pinned("a");
    ASSERT_TRUE(pin.ok());
    uint8_t buf[48];
    EXPECT_EQ(pin->pread(buf, sizeof(buf), 0).value(), 48u);
    EXPECT_EQ(buf[47], 'z');
    EXPECT_EQ(pin->size(), 48u);
  }
  const LocalStore::FdStats stats = store.fd_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.open, 0u);
  EXPECT_EQ(stats.budget, 0u);
}

// The budget counts slabs, not entries.
TEST(LocalStore, FdBudgetCapsHeldFds) {
  const std::string root = temp_dir("store14");
  // 64 KiB slabs: each 40 KiB entry fills one.
  LocalStore store(root, /*capacity_bytes=*/1u << 20, /*fd_budget=*/1);
  ASSERT_EQ(store.slab_bytes(), 64u << 10);
  constexpr size_t kEntry = 40u << 10;
  put_cached(store, "a", kEntry, 'a');
  put_cached(store, "b", kEntry, 'b');
  ASSERT_EQ(slab_files(root).size(), 2u);
  EXPECT_EQ(store.fd_stats().open, 1u);
  ASSERT_TRUE(store.open_pinned("a").ok());
  ASSERT_TRUE(store.open_pinned("b").ok());
  EXPECT_EQ(store.fd_stats().hits, 1u);
  EXPECT_EQ(store.fd_stats().misses, 1u);
  // Dropping the slab with the fd frees its place for the next slab.
  ASSERT_TRUE(store.evict("a").ok());
  put_cached(store, "c", kEntry, 'c');
  EXPECT_EQ(store.fd_stats().open, 1u);
  ASSERT_TRUE(store.open_pinned("c").ok());
  EXPECT_EQ(store.fd_stats().hits, 2u);
}

TEST(LocalStore, EmfileAtClaimFailsWithoutLeaking) {
  const std::string root = temp_dir("store15");
  LocalStore store(root);
  ASSERT_TRUE(store.reserve(40).ok());

  // Cap the fd table at its lowest free slot: the slab create inside
  // claim() fails with EMFILE.
  rlimit old{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old), 0);
  const int lowest_free = ::dup(0);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit cap = old;
  cap.rlim_cur = static_cast<rlim_t>(lowest_free);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &cap), 0);
  auto slot = store.claim(40);
  ::setrlimit(RLIMIT_NOFILE, &old);
  ASSERT_FALSE(slot.ok());
  EXPECT_EQ(slot.error().code, ErrorCode::kIoError)
      << slot.error().to_string();
  store.release(40);
  EXPECT_EQ(store.bytes_used(), 0u);
  EXPECT_EQ(store.fd_stats().open, 0u);
  EXPECT_TRUE(slab_files(root).empty());

  put_cached(store, "a", 40, 'e');
  auto pin = store.open_pinned("a");
  ASSERT_TRUE(pin.ok());
  uint8_t buf[40];
  EXPECT_EQ(pin->pread(buf, sizeof(buf), 0).value(), 40u);
  EXPECT_EQ(buf[0], 'e');
  EXPECT_EQ(store.fd_stats().open, 1u);
}

// The write path grows a named file through its own read-write fd and
// then records the size; a pin sees both. A path held in a slab is
// copied out to its named file first.
TEST(LocalStore, GrownFileReadsBackThroughOpenPinned) {
  const std::string root = temp_dir("store16");
  LocalStore store(root);
  put_cached(store, "cached", 10, 'c');

  for (const std::string key : {"fresh", "cached"}) {
    auto w = store.open_write(key);
    ASSERT_TRUE(w.ok());
    std::vector<uint8_t> tail(300, 'w');
    ASSERT_TRUE(w->pwrite(tail.data(), tail.size(), 10).ok());
    ASSERT_TRUE(store.update_size(key, 310).ok());

    auto pin = store.open_pinned(key);
    ASSERT_TRUE(pin.ok()) << key;
    EXPECT_EQ(pin->size(), 310u) << key;
    EXPECT_EQ(pin->base(), 0u) << key;
    std::vector<uint8_t> back(310);
    EXPECT_EQ(pin->pread(back.data(), back.size(), 0).value(), 310u);
    EXPECT_EQ(back[0], key == "cached" ? 'c' : 0) << key;
    EXPECT_EQ(back[309], 'w') << key;
  }
  // The slab went with its last entry.
  EXPECT_TRUE(slab_files(root).empty());
  EXPECT_EQ(store.bytes_used(), 620u);
  EXPECT_EQ(store.cached_size("cached").value(), 310u);
}

// A truncating write open empties the named file and re-points the
// entry at once, without copying the slab bytes.
TEST(LocalStore, TruncatingWriteOpenRepointsWithoutCopy) {
  const std::string root = temp_dir("store18");
  LocalStore store(root);
  put_cached(store, "ckpt", 100, 'c');
  auto w = store.open_write("ckpt", /*keep_contents=*/false);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->size().value(), 0u);
  EXPECT_EQ(store.open_pinned("ckpt")->size(), 0u);
  EXPECT_EQ(store.open_pinned("ckpt")->base(), 0u);
  EXPECT_TRUE(slab_files(root).empty());
  EXPECT_EQ(store.bytes_used(), 0u);
}

// A non-truncating open that follows a truncating one, before the
// truncating writer's first update_size(), finds the emptied named
// file: it never copies the stale slab bytes over the writer's.
TEST(LocalStore, KeepingOpenAfterTruncatingOpenCopiesNothing) {
  const std::string root = temp_dir("store21");
  LocalStore store(root);
  put_cached(store, "ckpt", 100, 'c');
  auto trunc = store.open_write("ckpt", /*keep_contents=*/false);
  ASSERT_TRUE(trunc.ok());
  auto keep = store.open_write("ckpt");
  ASSERT_TRUE(keep.ok());
  EXPECT_EQ(keep->size().value(), 0u);
  const std::string fresh(5, 'w');
  ASSERT_TRUE(trunc->pwrite(fresh.data(), fresh.size(), 0).ok());
  ASSERT_TRUE(store.update_size("ckpt", fresh.size()).ok());
  std::string back(16, '\0');
  EXPECT_EQ(keep->pread(back.data(), back.size(), 0).value(), 5u);
  EXPECT_EQ(back.substr(0, 5), fresh);
  EXPECT_EQ(store.cached_size("ckpt").value(), 5u);
}

// Truncating and non-truncating opens of a slab-held path, interleaved
// from two threads: however they race, the named file ends holding
// exactly the truncating writer's bytes, never the slab's.
TEST(LocalStore, InterleavedTruncatingAndKeepingOpensNeverResurrectSlab) {
  const std::string root = temp_dir("store22");
  LocalStore store(root);
  const std::string fresh(64, 'w');
  for (int round = 0; round < 200; ++round) {
    (void)store.evict("ckpt");
    put_cached(store, "ckpt", 4096, 'c');
    std::thread truncating([&] {
      auto w = store.open_write("ckpt", /*keep_contents=*/false);
      ASSERT_TRUE(w.ok());
      ASSERT_TRUE(w->pwrite(fresh.data(), fresh.size(), 0).ok());
      ASSERT_TRUE(store.update_size("ckpt", fresh.size()).ok());
    });
    std::thread keeping([&] { ASSERT_TRUE(store.open_write("ckpt").ok()); });
    truncating.join();
    keeping.join();
    auto on_disk = read_file(store.physical_path("ckpt"));
    ASSERT_TRUE(on_disk.ok());
    ASSERT_EQ(std::string(on_disk->begin(), on_disk->end()), fresh)
        << "round " << round;
    ASSERT_EQ(store.cached_size("ckpt").value(), fresh.size());
  }
}

// A write records its size before its bytes land (and keeps it if the
// write then fails): a named file's pin, fresh fd and stat all report
// the bytes on disk, so no reply extent runs past EOF.
TEST(LocalStore, NamedFileSizedFromDiskNotBookkeeping) {
  const std::string root = temp_dir("store23");
  LocalStore store(root);
  auto w = store.open_write("ckpt");
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w->pwrite("abc", 3, 0).ok());
  ASSERT_TRUE(store.update_size("ckpt", 10).ok());
  auto pin = store.open_pinned("ckpt");
  ASSERT_TRUE(pin.ok());
  EXPECT_EQ(pin->size(), 3u);
  char buf[16];
  EXPECT_EQ(pin->pread(buf, sizeof(buf), 0).value(), 3u);
  EXPECT_EQ(store.open("ckpt")->size, 3u);
  EXPECT_EQ(store.cached_size("ckpt").value(), 3u);
}

// A non-truncating write open of a slab-held path in a full store moves
// the slot's bytes to the named copy rather than asking for new room.
TEST(LocalStore, CopyOutOfFullStoreNeedsNoRoom) {
  const std::string root = temp_dir("store24");
  constexpr uint64_t kCapacity = 16 * 64 * 1024;  // 64 KiB slabs
  LocalStore store(root, kCapacity);
  for (int i = 0; i < 16; ++i) {
    put_cached(store, "k" + std::to_string(i), 64 * 1024, uint8_t(i));
  }
  ASSERT_EQ(store.bytes_used(), kCapacity);
  auto w = store.open_write("k3");
  ASSERT_TRUE(w.ok()) << w.error().to_string();
  EXPECT_EQ(w->size().value(), 64u * 1024);
  uint8_t b = 0;
  EXPECT_EQ(w->pread(&b, 1, 1000).value(), 1u);
  EXPECT_EQ(b, 3);
  EXPECT_EQ(store.bytes_used(), kCapacity);
  EXPECT_EQ(store.open_pinned("k3")->base(), 0u);
  // k3's slab held nothing else, so it is gone; its bytes are k3's now.
  EXPECT_EQ(slab_files(root).size(), 15u);
  ASSERT_TRUE(store.evict("k3").ok());
  EXPECT_EQ(store.bytes_used(), kCapacity - 64 * 1024);
}

// A write open of a path the store does not hold fills the named file
// through `fill`, which reserves what it copies; the entry is the named
// file, and no slab is made. kNotFound from `fill` starts the file
// empty and unregistered.
TEST(LocalStore, WriteOpenFillsNamedFileDirectly) {
  const std::string root = temp_dir("store25");
  LocalStore store(root, /*capacity_bytes=*/1 << 20);
  const std::string body(5000, 'p');
  auto w = store.open_write("ckpt", true,
                            [&](PosixFile& out) -> Result<uint64_t> {
                              HVAC_RETURN_IF_ERROR(store.reserve(body.size()));
                              HVAC_ASSIGN_OR_RETURN(
                                  size_t n,
                                  out.pwrite(body.data(), body.size(), 0));
                              return uint64_t{n};
                            });
  ASSERT_TRUE(w.ok()) << w.error().to_string();
  EXPECT_EQ(w->size().value(), body.size());
  EXPECT_EQ(store.cached_size("ckpt").value(), body.size());
  EXPECT_EQ(store.bytes_used(), body.size());
  EXPECT_EQ(store.reserved_bytes(), 0u);
  EXPECT_TRUE(slab_files(root).empty());

  auto fresh = store.open_write("new", true, [](PosixFile&) -> Result<uint64_t> {
    return Error(ErrorCode::kNotFound, "nowhere");
  });
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->size().value(), 0u);
  EXPECT_FALSE(store.contains("new"));

  auto full = store.open_write("big", true, [](PosixFile&) -> Result<uint64_t> {
    return Error(ErrorCode::kCapacity, "too big");
  });
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.error().code, ErrorCode::kCapacity);
  EXPECT_EQ(store.bytes_used(), body.size());
}

// A killed process's slabs are deleted by the next store on the same
// root; named write-back files and journals stay.
TEST(LocalStore, ConstructionDeletesStaleSlabs) {
  const std::string root = temp_dir("store19");
  uint8_t b = 1;
  for (const char* name : {"77-0.slab", "77-1.slab", "00ab.hvac",
                           "hvac-00ab.wal"}) {
    ASSERT_TRUE(write_file(root + "/" + name, &b, 1).ok());
  }
  LocalStore store(root);
  EXPECT_TRUE(slab_files(root).empty());
  EXPECT_TRUE(file_exists(root + "/00ab.hvac"));
  EXPECT_TRUE(file_exists(root + "/hvac-00ab.wal"));
}

// ---- slab invariants under the cache manager ------------------------------

// Records every policy event on top of FIFO.
class RecordingPolicy : public core::FifoEviction {
 public:
  void on_evict(const std::string& logical_path) override {
    evicted.push_back(logical_path);
    core::FifoEviction::on_evict(logical_path);
  }
  std::vector<std::string> evicted;
};

struct ChurnFixture {
  std::string pfs_root, cache_root;
  std::unique_ptr<PfsBackend> pfs;
  std::unique_ptr<core::CacheManager> cache;
  std::vector<uint64_t> sizes;

  ChurnFixture(const std::string& name, uint64_t capacity, size_t files,
               std::unique_ptr<core::EvictionPolicy> policy) {
    pfs_root = temp_dir(name + "_pfs");
    cache_root = temp_dir(name + "_cache");
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (size_t i = 0; i < files; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      sizes.push_back(1 + (x >> 33) % (48u << 10));
      std::vector<uint8_t> data(sizes.back(), uint8_t(i));
      EXPECT_TRUE(write_file(pfs_root + "/" + name_of(i), data.data(),
                             data.size())
                      .ok());
    }
    pfs = std::make_unique<PfsBackend>(pfs_root);
    cache = std::make_unique<core::CacheManager>(
        pfs.get(), std::make_unique<LocalStore>(cache_root, capacity),
        std::move(policy));
  }
  static std::string name_of(size_t i) { return "f" + std::to_string(i); }
};

// Whole-slab eviction keeps the disk footprint honest: the slabs'
// allocated blocks never exceed the capacity plus one slab.
TEST(LocalStore, ChurnKeepsSlabBlocksWithinCapacity) {
  constexpr uint64_t kCapacity = 4u << 20;
  ChurnFixture fx("churn", kCapacity, 256,
                  core::make_eviction_policy("random", 7));
  LocalStore& store = fx.cache->store();
  uint64_t x = 12345;
  uint64_t peak = 0;
  for (int op = 0; op < 600; ++op) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const size_t i = (x >> 33) % fx.sizes.size();
    const auto data = fx.cache->read_through(ChurnFixture::name_of(i));
    ASSERT_TRUE(data.ok());
    ASSERT_EQ(data->size(), fx.sizes[i]);
    ASSERT_EQ((*data)[data->size() - 1], uint8_t(i));
    ASSERT_LE(store.bytes_used(), kCapacity);
    uint64_t blocks = 0;
    for (const std::string& slab : slab_files(fx.cache_root)) {
      struct stat st{};
      ASSERT_EQ(::stat(slab.c_str(), &st), 0);
      blocks += uint64_t(st.st_blocks) * 512;
    }
    ASSERT_LE(blocks, kCapacity + store.slab_bytes()) << "op " << op;
    peak = std::max(peak, blocks);
  }
  EXPECT_GT(fx.cache->metrics().evictions, 0u);
  EXPECT_GT(peak, kCapacity / 2);
}

// Evicting a victim drops its whole slab, and the policy hears of every
// entry that went, and of nothing else.
TEST(LocalStore, EvictedSlabReportsEveryEntry) {
  constexpr uint64_t kCapacity = 2u << 20;  // 128 KiB slabs
  auto owned = std::make_unique<RecordingPolicy>();
  RecordingPolicy* policy = owned.get();
  ChurnFixture fx("report", kCapacity, 128, std::move(owned));
  LocalStore& store = fx.cache->store();
  std::set<std::string> cached;
  for (size_t i = 0; i < fx.sizes.size(); ++i) {
    const std::string key = ChurnFixture::name_of(i);
    const size_t before = policy->evicted.size();
    ASSERT_TRUE(fx.cache->read_through(key).ok());
    for (size_t k = before; k < policy->evicted.size(); ++k) {
      const std::string& gone = policy->evicted[k];
      EXPECT_EQ(cached.erase(gone), 1u) << gone;
      EXPECT_FALSE(store.contains(gone)) << gone;
    }
    cached.insert(key);
    // Everything not reported is still resident.
    for (const std::string& live : cached) {
      ASSERT_TRUE(store.contains(live)) << live;
    }
  }
  EXPECT_EQ(fx.cache->metrics().evictions, policy->evicted.size());
  // Slabs held several entries each, so some evictions took neighbours.
  EXPECT_GT(policy->evicted.size(), store.entry_count() / 4);
}

}  // namespace
}  // namespace hvac::storage
