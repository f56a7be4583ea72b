// Crash-consistency tests for the checkpoint write path: the journal's
// framing (round-trip, torn tails, CRC corruption, idempotent replay,
// committed sizes, the retired payload record, a fuzzed decoder) and
// the server's graceful ENOSPC degradation from write-back to
// write-through.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "client/hvac_client.h"
#include "common/fault_injection.h"
#include "core/metrics_frame.h"
#include "server/hvac_proto.h"
#include "server/node_runtime.h"
#include "storage/write_journal.h"

namespace hvac {
namespace {

namespace fs = std::filesystem;
using storage::JournalRecordType;
using storage::WriteJournal;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "hvac_wal_" + name + "_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Clears fault rules on every exit path (a leaked rule would poison
// unrelated tests in this binary).
struct FaultGuard {
  explicit FaultGuard(const std::string& spec) {
    EXPECT_TRUE(fault::configure(spec).ok());
  }
  ~FaultGuard() { (void)fault::configure(""); }
};

TEST(WriteJournal, Crc32KnownAnswer) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(storage::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(storage::crc32("", 0), 0u);
}

// CRC-32 straight from its definition, one bit at a time: the
// reference the word-at-a-time crc32 must match.
uint32_t reference_crc32(const uint8_t* p, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> pseudo_random(size_t n, uint32_t seed) {
  std::vector<uint8_t> out(n);
  for (auto& b : out) {
    seed = seed * 1664525u + 1013904223u;
    b = static_cast<uint8_t>(seed >> 24);
  }
  return out;
}

TEST(WriteJournal, Crc32MatchesReferenceAtEveryLengthAndAlignment) {
  const std::vector<uint8_t> buf = pseudo_random(64 + 8, 7);
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(storage::crc32(buf.data() + align, len),
                reference_crc32(buf.data() + align, len))
          << "align " << align << " len " << len;
    }
  }
  const std::vector<uint8_t> big = pseudo_random(1u << 20, 11);
  EXPECT_EQ(storage::crc32(big.data(), big.size()),
            reference_crc32(big.data(), big.size()));
}

TEST(WriteJournal, Crc32UpdateChainsAtAnySplit) {
  const std::vector<uint8_t> buf = pseudo_random(131, 3);
  const uint32_t whole = storage::crc32(buf.data(), buf.size());
  for (size_t cut = 0; cut <= buf.size(); ++cut) {
    const uint32_t head = storage::crc32(buf.data(), cut);
    EXPECT_EQ(storage::crc32_update(head, buf.data() + cut, buf.size() - cut),
              whole)
        << "cut " << cut;
  }
}

// One frame built by hand from the layout in write_journal.h:
// [u32 len][u32 crc][body], body = [u8 type][u64 seq][fields].
struct Frame {
  std::vector<uint8_t> body;

  Frame(JournalRecordType type, uint64_t seq) {
    body.push_back(static_cast<uint8_t>(type));
    u64(seq);
  }
  Frame& raw(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    body.insert(body.end(), b, b + n);
    return *this;
  }
  Frame& u32(uint32_t v) { return raw(&v, 4); }
  Frame& u64(uint64_t v) { return raw(&v, 8); }
  Frame& str(const std::string& s) {
    u32(static_cast<uint32_t>(s.size()));
    return raw(s.data(), s.size());
  }
  void append_to(std::vector<uint8_t>& log) const {
    const uint32_t len = static_cast<uint32_t>(body.size());
    const uint32_t crc = reference_crc32(body.data(), body.size());
    log.insert(log.end(), reinterpret_cast<const uint8_t*>(&len),
               reinterpret_cast<const uint8_t*>(&len) + 4);
    log.insert(log.end(), reinterpret_cast<const uint8_t*>(&crc),
               reinterpret_cast<const uint8_t*>(&crc) + 4);
    log.insert(log.end(), body.begin(), body.end());
  }
};

Frame size_frame(uint64_t seq, const std::string& path, uint64_t size) {
  Frame f(JournalRecordType::kSize, seq);
  f.str(path).u64(size);
  return f;
}

using Dirty = std::map<std::string, uint64_t>;

std::vector<uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

TEST(WriteJournal, GatheredRecordsMatchHandBuiltFrames) {
  const std::string path = temp_dir("golden") + "/j.wal";
  const std::vector<uint8_t> payload = pseudo_random(1000, 5);
  {
    auto j = WriteJournal::open(path);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->append_size("ckpt/a.bin", 4096).ok());
    // The extent form stores the extent's end, never its bytes.
    ASSERT_TRUE((*j)->append_write("ckpt/a.bin", 7, payload.data(),
                                   payload.size()).ok());
    ASSERT_TRUE((*j)->append_truncate("ckpt/a.bin").ok());
    ASSERT_TRUE((*j)->append_flushed("ckpt/b.bin").ok());
    ASSERT_TRUE((*j)->commit().ok());
  }
  std::vector<uint8_t> expect;
  size_frame(0, "ckpt/a.bin", 4096).append_to(expect);
  size_frame(1, "ckpt/a.bin", 1007).append_to(expect);
  Frame(JournalRecordType::kTruncate, 2).str("ckpt/a.bin").append_to(expect);
  Frame(JournalRecordType::kFlushed, 3).str("ckpt/b.bin").append_to(expect);
  Frame(JournalRecordType::kCommit, 4).append_to(expect);
  EXPECT_EQ(file_bytes(path), expect);
}

void write_log(const std::string& path, const std::vector<uint8_t>& log) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(log.data()),
            static_cast<std::streamsize>(log.size()));
}

// A log laid down frame by frame from the documented layout replays,
// and the next append continues it.
TEST(WriteJournal, HandBuiltJournalReplaysUnchanged) {
  const std::string path = temp_dir("handbuilt") + "/j.wal";
  std::vector<uint8_t> log;
  size_frame(0, "a", 5).append_to(log);
  size_frame(1, "b", 5).append_to(log);
  Frame(JournalRecordType::kCommit, 2).append_to(log);
  Frame(JournalRecordType::kFlushed, 3).str("a").append_to(log);
  Frame(JournalRecordType::kTruncate, 4).str("b").append_to(log);
  size_frame(5, "b", 3).append_to(log);
  Frame(JournalRecordType::kCommit, 6).append_to(log);
  write_log(path, log);
  auto j = WriteJournal::open(path);
  ASSERT_TRUE(j.ok());
  auto stats = (*j)->replay();
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(stats->sizes_committed, 3u);
  EXPECT_EQ(stats->flushes_seen, 1u);
  EXPECT_EQ(stats->truncates_seen, 1u);
  EXPECT_EQ(stats->commits_seen, 2u);
  EXPECT_EQ(stats->truncated_bytes, 0u);
  EXPECT_EQ(stats->dirty, (Dirty{{"b", 3}}));
  EXPECT_EQ((*j)->next_seq(), 7u);

  ASSERT_TRUE((*j)->append_size("c", 3).ok());
  size_frame(7, "c", 3).append_to(log);
  EXPECT_EQ(file_bytes(path), log);
}

// Record type 1 held a write's payload. A journal that still holds one
// is refused, not cut: its acked bytes exist nowhere else.
TEST(WriteJournal, RetiredPayloadRecordIsRefused) {
  const std::string path = temp_dir("retired") + "/j.wal";
  std::vector<uint8_t> log;
  size_frame(0, "a", 5).append_to(log);
  Frame(JournalRecordType::kCommit, 1).append_to(log);
  Frame retired(JournalRecordType::kRetiredWrite, 2);
  retired.str("b").u64(0).u32(4).raw("data", 4);
  retired.append_to(log);
  write_log(path, log);
  auto j = WriteJournal::open(path);
  ASSERT_TRUE(j.ok());
  auto stats = (*j)->replay();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.error().code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(file_bytes(path), log);  // left for the build that wrote it
}

TEST(WriteJournal, RoundTripAndDirtyTracking) {
  const std::string path = temp_dir("roundtrip") + "/j.wal";
  {
    auto j = WriteJournal::open(path);
    ASSERT_TRUE(j.ok()) << j.error().to_string();
    ASSERT_TRUE((*j)->append_size("a", 5).ok());
    ASSERT_TRUE((*j)->append_size("b", 5).ok());
    ASSERT_TRUE((*j)->commit().ok());
    ASSERT_TRUE((*j)->append_flushed("a").ok());
    ASSERT_TRUE((*j)->commit().ok());
  }
  auto j = WriteJournal::open(path);
  ASSERT_TRUE(j.ok());
  auto stats = (*j)->replay();
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(stats->sizes_committed, 2u);
  EXPECT_EQ(stats->commits_seen, 2u);
  EXPECT_EQ(stats->flushes_seen, 1u);
  EXPECT_EQ(stats->truncated_bytes, 0u);
  // "a" was flushed after its commit; only "b" is still owed.
  EXPECT_EQ(stats->dirty, (Dirty{{"b", 5}}));
}

// A barrier cut between its size record and its kCommit (the torn
// tail of a kill -9) commits nothing: the file keeps its older size.
TEST(WriteJournal, SizeWithoutCommitIsNotReplayed) {
  const std::string path = temp_dir("nocommit") + "/j.wal";
  {
    auto j = WriteJournal::open(path);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->append_size("a", 4).ok());
    ASSERT_TRUE((*j)->commit().ok());
    ASSERT_TRUE((*j)->append_size("a", 9).ok());
    ASSERT_TRUE((*j)->append_size("b", 3).ok());
  }
  auto j = WriteJournal::open(path);
  ASSERT_TRUE(j.ok());
  auto stats = (*j)->replay();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->sizes_committed, 1u);
  EXPECT_EQ(stats->dirty, (Dirty{{"a", 4}}));
}

TEST(WriteJournal, TornTailTruncatedWithoutError) {
  const std::string path = temp_dir("torn") + "/j.wal";
  uint64_t valid_end = 0;
  {
    auto j = WriteJournal::open(path);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->append_size("a", 4).ok());
    ASSERT_TRUE((*j)->commit().ok());
    valid_end = (*j)->size_bytes();
  }
  // A crash mid-append leaves a frame whose length prefix promises
  // more bytes than the file holds.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const uint32_t len = 1000;
    out.write(reinterpret_cast<const char*>(&len), sizeof(len));
    out.write("torn", 4);
  }
  ASSERT_GT(fs::file_size(path), valid_end);

  auto j = WriteJournal::open(path);
  ASSERT_TRUE(j.ok());
  auto stats = (*j)->replay();
  ASSERT_TRUE(stats.ok()) << "torn tail must not fail recovery: "
                          << stats.error().to_string();
  EXPECT_EQ(stats->sizes_committed, 1u);
  EXPECT_GT(stats->truncated_bytes, 0u);
  EXPECT_EQ(stats->dirty, (Dirty{{"a", 4}}));
  // The tail was physically cut: a second incarnation sees a clean log.
  EXPECT_EQ(fs::file_size(path), valid_end);
  auto j2 = WriteJournal::open(path);
  ASSERT_TRUE(j2.ok());
  auto stats2 = (*j2)->replay();
  ASSERT_TRUE(stats2.ok());
  EXPECT_EQ(stats2->truncated_bytes, 0u);
  EXPECT_EQ(stats2->sizes_committed, 1u);
}

TEST(WriteJournal, CrcCorruptionCutsTailFromBadRecord) {
  const std::string path = temp_dir("crc") + "/j.wal";
  uint64_t first_end = 0;
  uint64_t total = 0;
  {
    auto j = WriteJournal::open(path);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->append_size("a", 4).ok());
    ASSERT_TRUE((*j)->commit().ok());
    first_end = (*j)->size_bytes();
    ASSERT_TRUE((*j)->append_size("b", 4).ok());
    ASSERT_TRUE((*j)->commit().ok());
    total = (*j)->size_bytes();
  }
  // Flip one byte inside the third record's body (past its 8-byte
  // len+crc header): the CRC check must reject it and everything after.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(first_end) + 9);
    char c = 0;
    f.read(&c, 1);
    c ^= 0x40;
    f.seekp(static_cast<std::streamoff>(first_end) + 9);
    f.write(&c, 1);
  }
  auto j = WriteJournal::open(path);
  ASSERT_TRUE(j.ok());
  auto stats = (*j)->replay();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->sizes_committed, 1u);
  EXPECT_EQ(stats->truncated_bytes, total - first_end);
  EXPECT_EQ(stats->dirty, (Dirty{{"a", 4}}));
  EXPECT_EQ(fs::file_size(path), first_end);
}

TEST(WriteJournal, ReplayIsIdempotent) {
  const std::string path = temp_dir("idem") + "/j.wal";
  {
    auto j = WriteJournal::open(path);
    ASSERT_TRUE(j.ok());
    // Two barriers of one file: the later committed size wins, and
    // replaying the same log twice gives the same answer.
    ASSERT_TRUE((*j)->append_size("a", 4).ok());
    ASSERT_TRUE((*j)->commit().ok());
    ASSERT_TRUE((*j)->append_size("a", 6).ok());
    ASSERT_TRUE((*j)->commit().ok());
  }
  for (int round = 0; round < 2; ++round) {
    auto j = WriteJournal::open(path);
    ASSERT_TRUE(j.ok());
    auto stats = (*j)->replay();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->sizes_committed, 2u);
    EXPECT_EQ(stats->dirty, (Dirty{{"a", 6}}));
  }
}

// A truncating open discards what earlier barriers committed for the
// file (the application emptied it); later barriers commit anew.
TEST(WriteJournal, TruncateRecordResetsFile) {
  const std::string path = temp_dir("trunc") + "/j.wal";
  {
    auto j = WriteJournal::open(path);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->append_size("a", 9).ok());
    ASSERT_TRUE((*j)->append_size("b", 9).ok());
    ASSERT_TRUE((*j)->commit().ok());
    ASSERT_TRUE((*j)->append_truncate("a").ok());
    ASSERT_TRUE((*j)->append_truncate("b").ok());
    ASSERT_TRUE((*j)->append_size("a", 3).ok());
    ASSERT_TRUE((*j)->commit().ok());
  }
  auto j = WriteJournal::open(path);
  ASSERT_TRUE(j.ok());
  auto stats = (*j)->replay();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->truncates_seen, 2u);
  EXPECT_EQ(stats->dirty, (Dirty{{"a", 3}}));
}

TEST(WriteJournal, CheckpointResetEmptiesLog) {
  const std::string path = temp_dir("reset") + "/j.wal";
  {
    auto j = WriteJournal::open(path);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->append_size("a", 4).ok());
    ASSERT_TRUE((*j)->commit().ok());
    ASSERT_TRUE((*j)->checkpoint_reset().ok());
    EXPECT_EQ((*j)->size_bytes(), 0u);
    // The journal keeps working after a reset.
    ASSERT_TRUE((*j)->append_size("b", 5).ok());
    ASSERT_TRUE((*j)->commit().ok());
  }
  auto j = WriteJournal::open(path);
  ASSERT_TRUE(j.ok());
  auto stats = (*j)->replay();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->sizes_committed, 1u);
  EXPECT_EQ(stats->dirty, (Dirty{{"b", 5}}));
}

// The decoder under random damage: a valid log of every record type,
// cut, bit-flipped, spliced and overwritten with noise, never crashes
// (the ASan leg runs this), and replay either answers or refuses a
// retired record, never reporting a size no intact record holds.
TEST(WriteJournalFuzz, DamagedLogsReplayOrRefuseCleanly) {
  const std::string dir = temp_dir("fuzz");
  std::vector<uint8_t> base;
  size_frame(0, "ckpt/a", 4096).append_to(base);
  size_frame(1, "ckpt/b", 1 << 20).append_to(base);
  Frame(JournalRecordType::kCommit, 2).append_to(base);
  Frame(JournalRecordType::kFlushed, 3).str("ckpt/a").append_to(base);
  Frame(JournalRecordType::kTruncate, 4).str("ckpt/b").append_to(base);
  size_frame(5, "ckpt/b", 77).append_to(base);
  Frame(JournalRecordType::kCommit, 6).append_to(base);
  Frame retired(JournalRecordType::kRetiredWrite, 7);
  retired.str("ckpt/c").u64(0).u32(3).raw("xyz", 3);
  const std::vector<uint64_t> sizes = {4096, 1 << 20, 77};
  uint32_t seed = 12345;
  auto next = [&] {
    seed = seed * 1664525u + 1013904223u;
    return seed >> 8;
  };
  for (int round = 0; round < 3000; ++round) {
    std::vector<uint8_t> log = base;
    if (round % 5 == 0) retired.append_to(log);
    const int damage = static_cast<int>(next() % 4);
    if (damage == 0 && !log.empty()) {
      log.resize(next() % log.size());
    } else if (damage == 1) {
      for (int k = 0; k < 1 + static_cast<int>(next() % 4); ++k) {
        log[next() % log.size()] ^= static_cast<uint8_t>(1u << (next() % 8));
      }
    } else if (damage == 2) {
      const size_t at = next() % log.size();
      const std::vector<uint8_t> noise = pseudo_random(next() % 64, next());
      log.insert(log.begin() + static_cast<std::ptrdiff_t>(at), noise.begin(),
                 noise.end());
    } else {
      // A frame whose length and CRC are right but whose body lies.
      Frame lie(static_cast<JournalRecordType>(next() % 8), next());
      lie.u32(next() % 4096).u64(next());
      lie.append_to(log);
    }
    const std::string path = dir + "/j" + std::to_string(round % 4) + ".wal";
    write_log(path, log);
    auto j = WriteJournal::open(path);
    ASSERT_TRUE(j.ok());
    auto stats = (*j)->replay();
    if (!stats.ok()) {
      EXPECT_EQ(stats.error().code, ErrorCode::kInvalidArgument);
      continue;
    }
    for (const auto& [p, size] : stats->dirty) {
      EXPECT_NE(std::find(sizes.begin(), sizes.end(), size), sizes.end())
          << p << " " << size;
    }
    EXPECT_LE((*j)->size_bytes(), log.size());
  }
}

// ---- ENOSPC shed: a full local store degrades to write-through ----

struct WriteNode {
  std::string pfs_root;
  std::string cache_root;
  std::unique_ptr<server::NodeRuntime> node;
  client::HvacClientOptions copts;

  // `tcp`: dial localhost:PORT, which names no node-local alias, so
  // the writer gets no fd and writes by kWrite.
  explicit WriteNode(const std::string& name, uint64_t capacity = 0,
                     bool tcp = false) {
    pfs_root = temp_dir(name + "_pfs");
    cache_root = temp_dir(name + "_cache");
    server::NodeRuntimeOptions o;
    o.pfs_root = pfs_root;
    o.cache_root = cache_root;
    o.instances = 1;
    o.cache_capacity_bytes_per_instance = capacity;
    node = std::make_unique<server::NodeRuntime>(o);
    EXPECT_TRUE(node->start().ok());
    copts.dataset_dir = pfs_root;
    copts.server_endpoints = node->endpoints();
    if (tcp) {
      for (std::string& e : copts.server_endpoints) {
        e = "localhost:" + e.substr(e.rfind(':') + 1);
      }
    }
    copts.allow_pfs_fallback = false;  // a shed must happen server-side
  }

  std::string pfs_read(const std::string& rel) {
    std::ifstream in(pfs_root + "/" + rel, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }
};

TEST(WriteShed, FullStoreAtOpenDegradesToWriteThrough) {
  WriteNode n("shed_open");
  // Local NVMe reports full before the first byte: the handle must be
  // served write-through from the PFS, not fail the job.
  FaultGuard fault("store_write:error=capacity");

  client::HvacClient client(n.copts);
  auto vfd = client.open_write(n.pfs_root + "/ckpt/model.bin", true);
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  const std::string payload = "checkpoint-shard-0";
  auto w = client.write(*vfd, payload.data(), payload.size());
  ASSERT_TRUE(w.ok()) << w.error().to_string();
  EXPECT_EQ(*w, payload.size());
  ASSERT_TRUE(client.fsync(*vfd).ok());
  ASSERT_TRUE(client.close(*vfd).ok());

  EXPECT_EQ(n.pfs_read("ckpt/model.bin"), payload);
  const auto wb = n.node->aggregated_frame().write_back;
  EXPECT_EQ(wb.write_through_sheds, 1u);
  EXPECT_EQ(wb.write_through_bytes, payload.size());
  EXPECT_EQ(wb.dirty_files, 0u);   // nothing pending for the flusher
  EXPECT_EQ(wb.journal_records, 0u);  // no write-back state to journal
}

TEST(WriteShed, MidFileCapacityShedsAndKeepsPrefix) {
  WriteNode n("shed_mid", 0, /*tcp=*/true);
  // The first kStoreWrite check (the write-back open) passes; the
  // capacity gate on the first kWrite fires ENOSPC, so the handle
  // sheds mid-file: the locally-written prefix is flushed to the PFS
  // first, then writing continues there.
  FaultGuard fault("store_write:error=capacity:after=1");

  client::HvacClient client(n.copts);
  auto vfd = client.open_write(n.pfs_root + "/ckpt/opt.bin", true);
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  auto w1 = client.write(*vfd, "AAAA", 4);
  ASSERT_TRUE(w1.ok()) << w1.error().to_string();
  auto w2 = client.write(*vfd, "BBBB", 4);
  ASSERT_TRUE(w2.ok()) << w2.error().to_string();
  ASSERT_TRUE(client.fsync(*vfd).ok());
  ASSERT_TRUE(client.close(*vfd).ok());

  EXPECT_EQ(n.pfs_read("ckpt/opt.bin"), "AAAABBBB");
  const auto wb = n.node->aggregated_frame().write_back;
  EXPECT_EQ(wb.write_through_sheds, 1u);
  EXPECT_EQ(wb.write_through_bytes, 8u);
  EXPECT_EQ(wb.dirty_files, 0u);
}

TEST(WriteShed, CleanWriteBackLandsOnPfsAndResetsJournal) {
  WriteNode n("clean");
  client::HvacClient client(n.copts);
  auto vfd = client.open_write(n.pfs_root + "/ckpt/w.bin", true);
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  const std::string payload(64 * 1024, 'k');
  auto w = client.write(*vfd, payload.data(), payload.size());
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(client.fsync(*vfd).ok());
  ASSERT_TRUE(client.close(*vfd).ok());

  // Write-back: the flusher lands the file asynchronously.
  std::string got;
  for (int i = 0; i < 500; ++i) {
    got = n.pfs_read("ckpt/w.bin");
    if (got == payload) break;
    ::usleep(10 * 1000);
  }
  EXPECT_EQ(got.size(), payload.size());
  EXPECT_EQ(got, payload);
  const auto wb = n.node->aggregated_frame().write_back;
  EXPECT_EQ(wb.write_through_sheds, 0u);
  // Written once on the node: through the passed fd, no kWrite.
  EXPECT_EQ(wb.writes, 0u);
  EXPECT_EQ(wb.local_write_bytes, payload.size());
  EXPECT_GE(wb.fsyncs, 1u);
  // Once every dirty file is flushed the journal checkpoints to empty.
  for (int i = 0; i < 500 && n.node->aggregated_frame().write_back.dirty_files;
       ++i) {
    ::usleep(10 * 1000);
  }
  EXPECT_EQ(n.node->aggregated_frame().write_back.dirty_files, 0u);
  EXPECT_EQ(n.node->aggregated_frame().write_back.journal_records, 0u);
}

// A passed-fd writer's bytes reach the server only at its barrier.
// When that barrier finds the file over the store budget, the server
// lands the whole prefix on the PFS and writes through from there:
// the fsync still succeeds, and the client writes on by kWrite.
TEST(WriteShed, PassedFdWriterShedsAtBarrierAndKeepsPrefix) {
  constexpr size_t kCapacity = 64 * 1024;
  WriteNode n("shed_fd", kCapacity);
  client::HvacClient client(n.copts);
  auto vfd = client.open_write(n.pfs_root + "/ckpt/big.bin", true);
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  const std::vector<uint8_t> prefix = pseudo_random(kCapacity + 4096, 21);
  const std::vector<uint8_t> tail = pseudo_random(10 * 1024, 22);
  ASSERT_EQ(client.write(*vfd, prefix.data(), prefix.size()).value(),
            prefix.size());
  EXPECT_EQ(n.node->aggregated_frame().write_back.writes, 0u);
  ASSERT_TRUE(client.fsync(*vfd).ok());
  ASSERT_EQ(client.write(*vfd, tail.data(), tail.size()).value(),
            tail.size());
  ASSERT_TRUE(client.fsync(*vfd).ok());
  ASSERT_TRUE(client.close(*vfd).ok());

  std::vector<uint8_t> expect = prefix;
  expect.insert(expect.end(), tail.begin(), tail.end());
  const std::string got = n.pfs_read("ckpt/big.bin");
  EXPECT_EQ(got.size(), expect.size());
  EXPECT_TRUE(got == std::string(expect.begin(), expect.end()));
  const auto wb = n.node->aggregated_frame().write_back;
  EXPECT_EQ(wb.write_through_sheds, 1u);
  EXPECT_EQ(wb.writes, 1u);  // the tail, by kWrite
  EXPECT_EQ(wb.write_through_bytes, tail.size());
  EXPECT_EQ(wb.local_write_bytes, prefix.size());
  EXPECT_EQ(wb.dirty_files, 0u);
  const storage::LocalStore& store = n.node->instance(0).cache().store();
  EXPECT_LE(store.bytes_used(), store.capacity_bytes());
}

// A passed-fd writer that never calls fsync still meets the budget:
// once kWriteFdBarrierBytes went through its fd the client runs a
// barrier itself, which sheds the file mid-write. Every byte lands on
// the PFS, and the rest of the file goes by kWrite.
TEST(WriteShed, PassedFdWriterWithoutFsyncShedsAtTheBudget) {
  constexpr size_t kCapacity = 64 * 1024;
  constexpr size_t kChunk = 1 << 20;
  constexpr size_t kChunks = client::kWriteFdBarrierBytes / kChunk + 4;
  WriteNode n("shed_nofsync", kCapacity);
  client::HvacClient client(n.copts);
  auto vfd = client.open_write(n.pfs_root + "/ckpt/nofsync.bin", true);
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  const std::vector<uint8_t> payload = pseudo_random(kChunks * kChunk, 23);
  for (size_t i = 0; i < kChunks; ++i) {
    if (i == kChunks - 4) {
      // The last fd write crossed the limit: the shed happened there.
      EXPECT_EQ(n.node->aggregated_frame().write_back.write_through_sheds,
                1u);
    }
    ASSERT_EQ(
        client.write(*vfd, payload.data() + i * kChunk, kChunk).value(),
        kChunk);
  }
  EXPECT_EQ(client.stats().fsyncs, 0u);
  auto wb = n.node->aggregated_frame().write_back;
  EXPECT_EQ(wb.writes, 4u);  // the rest, by kWrite
  EXPECT_EQ(wb.write_through_bytes, 4 * kChunk);
  ASSERT_TRUE(client.close(*vfd).ok());

  const std::string got = n.pfs_read("ckpt/nofsync.bin");
  EXPECT_EQ(got.size(), payload.size());
  EXPECT_TRUE(got == std::string(payload.begin(), payload.end()));
  wb = n.node->aggregated_frame().write_back;
  EXPECT_EQ(wb.write_through_sheds, 1u);
  EXPECT_EQ(wb.local_write_bytes, client::kWriteFdBarrierBytes);
  EXPECT_EQ(wb.dirty_files, 0u);
  const storage::LocalStore& store = n.node->instance(0).cache().store();
  EXPECT_LE(store.bytes_used(), store.capacity_bytes());
}

// A checkpoint handle is write-only: reading it is EBADF, as with an
// O_WRONLY kernel fd, never a read of some other copy of the file.
TEST(WritePath, ReadOnWriteHandleIsBadFd) {
  WriteNode n("wronly");
  client::HvacClient client(n.copts);
  auto vfd = client.open_write(n.pfs_root + "/ckpt/r.bin", true);
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  ASSERT_TRUE(client.write(*vfd, "abc", 3).ok());
  char buf[8];
  const auto n_read = client.pread(*vfd, buf, sizeof(buf), 0);
  ASSERT_FALSE(n_read.ok());
  EXPECT_EQ(n_read.error().code, ErrorCode::kBadFd);
  EXPECT_TRUE(client.close(*vfd).ok());
}

// ---- non-truncating opens: partial overwrites must keep old bytes ----

TEST(WritePath, NonTruncatingOpenPreservesExistingPfsContent) {
  WriteNode n("notrunc");
  // An existing 64 KiB PFS file the cache has never seen.
  const std::string rel = "ckpt/resume.bin";
  const std::string original(64 * 1024, 'z');
  fs::create_directories(n.pfs_root + "/ckpt");
  {
    std::ofstream out(n.pfs_root + "/" + rel, std::ios::binary);
    out.write(original.data(),
              static_cast<std::streamsize>(original.size()));
  }

  client::HvacClient client(n.copts);
  auto vfd = client.open_write(n.pfs_root + "/" + rel, false);
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  // Partial overwrite in the middle: every byte around it must survive
  // the flusher's whole-file rename onto the PFS (the server prefills
  // the local copy from the PFS on a non-truncating open).
  const std::string patch = "PATCH";
  auto w = client.pwrite(*vfd, patch.data(), patch.size(), 100);
  ASSERT_TRUE(w.ok()) << w.error().to_string();
  ASSERT_TRUE(client.fsync(*vfd).ok());
  ASSERT_TRUE(client.close(*vfd).ok());

  std::string expect = original;
  expect.replace(100, patch.size(), patch);
  std::string got;
  for (int i = 0; i < 500; ++i) {
    got = n.pfs_read(rel);
    if (got == expect) break;
    ::usleep(10 * 1000);
  }
  EXPECT_EQ(got.size(), expect.size());
  EXPECT_EQ(got, expect);
}

TEST(WritePath, NonTruncatingOpenOfNewFileStartsEmpty) {
  WriteNode n("notrunc_new");
  client::HvacClient client(n.copts);
  // Nothing on the PFS: the open creates the file (O_CREAT semantics —
  // the shim only routes creating opens here).
  auto vfd = client.open_write(n.pfs_root + "/ckpt/new.bin", false);
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  auto w = client.write(*vfd, "abc", 3);
  ASSERT_TRUE(w.ok()) << w.error().to_string();
  ASSERT_TRUE(client.fsync(*vfd).ok());
  ASSERT_TRUE(client.close(*vfd).ok());
  std::string got;
  for (int i = 0; i < 500; ++i) {
    got = n.pfs_read("ckpt/new.bin");
    if (got == "abc") break;
    ::usleep(10 * 1000);
  }
  EXPECT_EQ(got, "abc");
}

// A non-truncating open in a store that epoch reads have filled stays
// write-back, for a path the store holds (its copy moves out of its
// slab) and for one it does not (the prefill evicts to make room).
TEST(WritePath, NonTruncatingOpenOfFullStoreWritesBack) {
  constexpr uint64_t kFile = 16 * 1024;
  WriteNode n("notrunc_full", /*capacity=*/16 * kFile);  // 16 KiB slabs
  fs::create_directories(n.pfs_root + "/d");
  for (int i = 0; i < 17; ++i) {
    const std::string body(kFile, char('a' + i));
    std::ofstream out(n.pfs_root + "/d/f" + std::to_string(i),
                      std::ios::binary);
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
  }
  client::HvacClient client(n.copts);
  for (int i = 0; i < 16; ++i) {
    auto vfd = client.open(n.pfs_root + "/d/f" + std::to_string(i));
    ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
    char b = 0;
    ASSERT_EQ(client.pread(*vfd, &b, 1, kFile - 1).value(), 1u);
    ASSERT_TRUE(client.close(*vfd).ok());
  }
  const storage::LocalStore& store = n.node->instance(0).cache().store();
  ASSERT_EQ(store.bytes_used(), store.capacity_bytes());

  for (const char* rel : {"d/f3", "d/f16"}) {
    auto vfd = client.open_write(n.pfs_root + "/" + rel, false);
    ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
    ASSERT_TRUE(client.pwrite(*vfd, "PATCH", 5, 100).ok());
    ASSERT_TRUE(client.fsync(*vfd).ok());
    ASSERT_TRUE(client.close(*vfd).ok());
  }
  EXPECT_EQ(n.node->aggregated_frame().write_back.write_through_sheds, 0u);
  for (const auto& [rel, fill] : {std::pair{"d/f3", 'd'}, {"d/f16", 'q'}}) {
    std::string expect(kFile, fill);
    expect.replace(100, 5, "PATCH");
    std::string got;
    for (int i = 0; i < 500; ++i) {
      got = n.pfs_read(rel);
      if (got == expect) break;
      ::usleep(10 * 1000);
    }
    EXPECT_EQ(got, expect) << rel;
  }
}

// A barrier whose size record failed has already charged the file's
// size to the store: a read of the file serves the bytes on disk, and
// the writer's bytes stay readable before any barrier commits them.
TEST(WritePath, FailedWriteLeavesReadsAtOnDiskBytes) {
  WriteNode n("short_named");
  client::HvacClient writer(n.copts);
  const std::string path = n.pfs_root + "/ckpt/s.bin";
  auto wfd = writer.open_write(path, true);
  ASSERT_TRUE(wfd.ok()) << wfd.error().to_string();
  ASSERT_TRUE(writer.write(*wfd, "abc", 3).ok());
  {
    FaultGuard f("journal_append:error=io");
    ASSERT_FALSE(writer.fsync(*wfd).ok());
  }
  client::HvacClient reader(n.copts);
  auto rfd = reader.open(path);
  ASSERT_TRUE(rfd.ok()) << rfd.error().to_string();
  char buf[64];
  auto got = reader.pread(*rfd, buf, sizeof(buf), 0);
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  EXPECT_EQ(std::string(buf, *got), "abc");
  EXPECT_TRUE(reader.close(*rfd).ok());
  EXPECT_TRUE(writer.close(*wfd).ok());
}

// ---- an undrained stop must not purge the local store ----

TEST(WritePath, UndrainedStopKeepsLocalStoreForReplay) {
  // Burst 1 is closed and flushed clean (the journal checkpoint-resets
  // to empty), then a second handle adds burst 2 while the PFS is
  // down. The graceful stop's drain times out, and the journal now
  // only holds burst 2's committed size — so the named file must
  // survive the stop. Purging it would leave the next start's replay
  // nothing to land, and the PFS would keep burst 1 alone.
  auto n = std::make_unique<WriteNode>("undrained");
  const std::string pfs_root = n->pfs_root;
  const std::string cache_root = n->cache_root;
  {
    client::HvacClient client(n->copts);
    auto vfd = client.open_write(pfs_root + "/ckpt/big.bin", true);
    ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
    auto w1 = client.write(*vfd, "AAAA", 4);
    ASSERT_TRUE(w1.ok()) << w1.error().to_string();
    ASSERT_TRUE(client.close(*vfd).ok());
    // Wait until burst 1 is flushed and the journal has reset.
    for (int i = 0;
         i < 500 && n->node->aggregated_frame().write_back.dirty_files; ++i) {
      ::usleep(10 * 1000);
    }
    ASSERT_EQ(n->node->aggregated_frame().write_back.dirty_files, 0u);
    ASSERT_EQ(n->node->aggregated_frame().write_back.journal_records, 0u);

    // PFS down (persistent): burst 2 stays in the store + journal.
    ASSERT_TRUE(fault::configure("pfs_write:error=io").ok());
    vfd = client.open_write(pfs_root + "/ckpt/big.bin", false);
    ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
    auto w2 = client.pwrite(*vfd, "BBBB", 4, 4);
    ASSERT_TRUE(w2.ok()) << w2.error().to_string();
    ASSERT_TRUE(client.fsync(*vfd).ok());  // local durability barrier
    ASSERT_TRUE(client.close(*vfd).ok());
  }
  n->node->stop();  // drain times out; store + journal must survive
  n.reset();
  ASSERT_TRUE(fault::configure("").ok());  // PFS back up

  // Restart on the same cache dir: replay plus the resumed flush must
  // land the complete file.
  server::NodeRuntimeOptions o;
  o.pfs_root = pfs_root;
  o.cache_root = cache_root;
  o.instances = 1;
  server::NodeRuntime node2(o);
  ASSERT_TRUE(node2.start().ok());
  std::string got;
  for (int i = 0; i < 500; ++i) {
    std::ifstream in(pfs_root + "/ckpt/big.bin", std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    got = ss.str();
    if (got == "AAAABBBB") break;
    ::usleep(10 * 1000);
  }
  EXPECT_EQ(got, "AAAABBBB");
  EXPECT_EQ(node2.aggregated_frame().write_back.replay_bytes, 8u);
  node2.stop();
}

// A named file the journal does not list as dirty is clean: its bytes
// are on the PFS. The next start deletes it rather than leave it
// unaccounted in the cache dir. The dirty one survives and lands, even
// when the restarted store's budget is too small to register it.
TEST(WritePath, RestartDeletesCleanNamedFiles) {
  auto n = std::make_unique<WriteNode>("clean_named");
  const std::string pfs_root = n->pfs_root;
  const std::string cache_root = n->cache_root;
  const storage::LocalStore& store = n->node->instance(0).cache().store();
  const std::string clean = store.physical_path("ckpt/clean.bin");
  const std::string dirty = store.physical_path("ckpt/dirty.bin");
  std::string payload(64 * 1024, '\0');
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = char('a' + i % 23);
  {
    client::HvacClient client(n->copts);
    auto vfd = client.open_write(pfs_root + "/ckpt/clean.bin", true);
    ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
    ASSERT_TRUE(client.write(*vfd, "CLEAN", 5).ok());
    ASSERT_TRUE(client.close(*vfd).ok());
    for (int i = 0;
         i < 500 && n->node->aggregated_frame().write_back.dirty_files; ++i) {
      ::usleep(10 * 1000);
    }
    ASSERT_EQ(n->node->aggregated_frame().write_back.dirty_files, 0u);
    ASSERT_EQ(n->pfs_read("ckpt/clean.bin"), "CLEAN");

    // A second file the PFS refuses keeps the store across the stop.
    ASSERT_TRUE(fault::configure("pfs_write:error=io").ok());
    vfd = client.open_write(pfs_root + "/ckpt/dirty.bin", true);
    ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
    ASSERT_TRUE(client.write(*vfd, payload.data(), payload.size()).ok());
    ASSERT_TRUE(client.close(*vfd).ok());
  }
  n->node->stop();
  n.reset();
  ASSERT_TRUE(fault::configure("").ok());
  ASSERT_TRUE(fs::exists(clean));
  ASSERT_TRUE(fs::exists(dirty));

  server::NodeRuntimeOptions o;
  o.pfs_root = pfs_root;
  o.cache_root = cache_root;
  o.instances = 1;
  o.cache_capacity_bytes_per_instance = payload.size() / 4;  // over budget
  server::NodeRuntime node2(o);
  ASSERT_TRUE(node2.start().ok());
  EXPECT_FALSE(fs::exists(clean));
  EXPECT_TRUE(fs::exists(dirty));
  std::string got;
  for (int i = 0; i < 500; ++i) {
    std::ifstream in(pfs_root + "/ckpt/dirty.bin", std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    got = ss.str();
    if (got == payload) break;
    ::usleep(10 * 1000);
  }
  EXPECT_TRUE(got == payload) << got.size() << " bytes on the PFS";
  EXPECT_EQ(node2.aggregated_frame().write_back.replay_bytes, payload.size());
  std::ifstream in(pfs_root + "/ckpt/clean.bin", std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "CLEAN");
  node2.stop();
}

// ---- the pfs durability level (HVAC_WRITE_DURABILITY=pfs) ----

// Once a pfs-level fsync returns, the PFS file holds exactly the bytes
// it committed, before any close: from a passed-fd writer over the
// node-local alias, and from a kWrite writer over TCP.
TEST(WritePath, PfsDurabilityFsyncLandsCommittedBytes) {
  for (const bool tcp : {false, true}) {
    SCOPED_TRACE(tcp ? "tcp" : "alias");
    WriteNode n(tcp ? "pfs_level_tcp" : "pfs_level_alias", 0, tcp);
    n.copts.write_durability = proto::kDurabilityPfs;
    client::HvacClient client(n.copts);
    auto vfd = client.open_write(n.pfs_root + "/ckpt/p.bin", true);
    ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
    const std::string first(3000, 'a');
    ASSERT_TRUE(client.write(*vfd, first.data(), first.size()).ok());
    ASSERT_TRUE(client.fsync(*vfd).ok());
    EXPECT_EQ(n.pfs_read("ckpt/p.bin"), first);

    ASSERT_TRUE(client.write(*vfd, "bbbb", 4).ok());
    EXPECT_EQ(n.pfs_read("ckpt/p.bin"), first);  // not committed yet
    ASSERT_TRUE(client.fsync(*vfd).ok());
    EXPECT_EQ(n.pfs_read("ckpt/p.bin"), first + "bbbb");
    EXPECT_EQ(n.node->aggregated_frame().write_back.writes, tcp ? 2u : 0u);
    ASSERT_TRUE(client.close(*vfd).ok());
  }
}

// A pfs-level fsync against a PFS that refuses every write reports the
// failure, promptly: the file stays queued for the flusher, and the
// server's handler threads stay free for the next request.
TEST(WritePath, PfsDurabilityFsyncFailsWhenThePfsDoes) {
  WriteNode n("pfs_level_down");
  n.copts.write_durability = proto::kDurabilityPfs;
  // A barrier parked on the PFS fails the test in seconds, not minutes.
  n.copts.rpc.recv_timeout_ms = 2000;
  n.copts.rpc.call_timeout_ms = 2000;
  client::HvacClient client(n.copts);
  auto vfd = client.open_write(n.pfs_root + "/ckpt/d.bin", true);
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  ASSERT_TRUE(client.write(*vfd, "DOWN", 4).ok());
  client::HvacClientOptions local = n.copts;
  local.write_durability = proto::kDurabilityLocal;
  client::HvacClient other(local);
  {
    FaultGuard fault("pfs_write:error=io");
    // The first fails once its flush opens the PFS breaker (three
    // attempts); the next two while it stays open.
    for (int i = 0; i < 3; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      const Status synced = client.fsync(*vfd);
      EXPECT_FALSE(synced.ok());
      EXPECT_LT(std::chrono::steady_clock::now() - t0,
                std::chrono::milliseconds(1500));
    }
    // A local-level writer is served by the same handler pool.
    auto ofd = other.open_write(n.pfs_root + "/ckpt/other.bin", true);
    ASSERT_TRUE(ofd.ok()) << ofd.error().to_string();
    ASSERT_TRUE(other.write(*ofd, "UP", 2).ok());
    ASSERT_TRUE(other.close(*ofd).ok());
  }
  // With the PFS back, the queued flush lands the committed bytes.
  for (int i = 0;
       i < 1000 && n.node->aggregated_frame().write_back.dirty_files; ++i) {
    ::usleep(10 * 1000);
  }
  ASSERT_TRUE(client.fsync(*vfd).ok());
  EXPECT_EQ(n.pfs_read("ckpt/d.bin"), "DOWN");
  EXPECT_EQ(n.pfs_read("ckpt/other.bin"), "UP");
  ASSERT_TRUE(client.close(*vfd).ok());
}

// One failed copy is retried through: a pfs-level fsync that meets a
// single PFS error still returns success, with the bytes on the PFS.
TEST(WritePath, PfsDurabilityFsyncRidesThroughATransientPfsError) {
  WriteNode n("pfs_level_blip");
  n.copts.write_durability = proto::kDurabilityPfs;
  client::HvacClient client(n.copts);
  auto vfd = client.open_write(n.pfs_root + "/ckpt/t.bin", true);
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  ASSERT_TRUE(client.write(*vfd, "BLIP", 4).ok());
  {
    FaultGuard fault("pfs_write:error=io:count=1");
    const Status synced = client.fsync(*vfd);
    EXPECT_TRUE(synced.ok()) << synced.error().to_string();
  }
  EXPECT_EQ(n.pfs_read("ckpt/t.bin"), "BLIP");
  EXPECT_GE(n.node->aggregated_frame().write_back.flush_retries, 1u);
  ASSERT_TRUE(client.close(*vfd).ok());
}

// A graceful stop lands a handle that was never closed at its last
// barrier: what the passed-fd writer wrote after it was never acked and
// does not reach the PFS.
TEST(WritePath, StopLandsAnUnclosedHandleAtItsLastBarrier) {
  WriteNode n("unclosed");
  client::HvacClient client(n.copts);
  auto vfd = client.open_write(n.pfs_root + "/ckpt/u.bin", true);
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  const std::string acked(1000, 'A');
  ASSERT_TRUE(client.write(*vfd, acked.data(), acked.size()).ok());
  ASSERT_TRUE(client.fsync(*vfd).ok());
  ASSERT_TRUE(client.write(*vfd, "TAILTAIL", 8).ok());
  EXPECT_EQ(n.node->aggregated_frame().write_back.writes, 0u);  // by fd
  n.node->stop();
  EXPECT_EQ(n.pfs_read("ckpt/u.bin"), acked);
}

// A commit that lands after the flusher's checkpoint reset (the client
// fsyncs or closes once its bytes already reached the PFS) must leave
// the journal empty, not holding a lone commit marker.
TEST(WriteJournal, CommitOnEmptyJournalLeavesItEmpty) {
  const std::string path = temp_dir("empty_commit") + "/j.wal";
  auto j = WriteJournal::open(path);
  ASSERT_TRUE(j.ok());
  ASSERT_TRUE((*j)->append_size("a", 4).ok());
  ASSERT_TRUE((*j)->commit().ok());
  EXPECT_EQ((*j)->record_count(), 2u);
  ASSERT_TRUE((*j)->checkpoint_reset().ok());
  ASSERT_TRUE((*j)->commit().ok());
  EXPECT_EQ((*j)->record_count(), 0u);
  EXPECT_EQ((*j)->size_bytes(), 0u);
}

// ---- injected journal faults must surface cleanly, never wedge ----

TEST(WriteJournalFaults, AppendAndFsyncFaultsSurfaceCleanly) {
  const std::string path = temp_dir("faults") + "/j.wal";
  auto j = WriteJournal::open(path);
  ASSERT_TRUE(j.ok());
  {
    FaultGuard f("journal_append:error=io");
    EXPECT_FALSE((*j)->append_size("a", 1).ok());
  }
  {
    FaultGuard f("journal_fsync:error=io");
    EXPECT_TRUE((*j)->append_size("a", 1).ok());
    EXPECT_FALSE((*j)->commit().ok());
  }
  // The journal keeps working after injected failures.
  EXPECT_TRUE((*j)->commit().ok());
}

// A refused append leaves no trace: the next one lands at the same
// offset with the same seq, and replay sees exactly the acked records.
TEST(WriteJournalFaults, FailedAppendLeavesNextAtSameOffset) {
  const std::string path = temp_dir("append_fault") + "/j.wal";
  std::vector<uint8_t> expect;
  {
    auto j = WriteJournal::open(path);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->append_size("a", 5).ok());
    size_frame(0, "a", 5).append_to(expect);
    const uint64_t end = (*j)->size_bytes();
    {
      FaultGuard f("journal_append:error=io");
      EXPECT_FALSE((*j)->append_size("b", 7).ok());
      EXPECT_FALSE((*j)->commit().ok());
    }
    EXPECT_EQ((*j)->size_bytes(), end);
    EXPECT_EQ((*j)->next_seq(), 1u);
    EXPECT_EQ((*j)->record_count(), 1u);
    EXPECT_EQ(fs::file_size(path), end);
    ASSERT_TRUE((*j)->append_size("c", 4).ok());
    size_frame(1, "c", 4).append_to(expect);
    EXPECT_EQ(file_bytes(path), expect);
    ASSERT_TRUE((*j)->commit().ok());
  }
  auto j = WriteJournal::open(path);
  ASSERT_TRUE(j.ok());
  auto stats = (*j)->replay();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->sizes_committed, 2u);
  EXPECT_EQ(stats->truncated_bytes, 0u);
  EXPECT_EQ(stats->dirty, (Dirty{{"a", 5}, {"c", 4}}));
}

// A pwritev that fails part way (here: a file-size limit) must not
// leave the partial frame behind for a later, shorter append to only
// half cover.
TEST(WriteJournalFaults, FailedWriteCutsPartialFrame) {
  const std::string path = temp_dir("partial") + "/j.wal";
  auto j = WriteJournal::open(path);
  ASSERT_TRUE(j.ok());
  ASSERT_TRUE((*j)->append_size("a", 5).ok());
  const uint64_t end = (*j)->size_bytes();
  const std::string long_path(4096, 'p');
  rlimit old{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &old), 0);
  auto* old_handler = std::signal(SIGXFSZ, SIG_IGN);
  rlimit cap = old;
  cap.rlim_cur = end + 100;
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &cap), 0);
  const Status failed = (*j)->append_size(long_path, 1);
  ::setrlimit(RLIMIT_FSIZE, &old);
  std::signal(SIGXFSZ, old_handler);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ((*j)->size_bytes(), end);
  EXPECT_EQ(fs::file_size(path), end);
  ASSERT_TRUE((*j)->append_size("c", 4).ok());
  ASSERT_TRUE((*j)->commit().ok());

  auto j2 = WriteJournal::open(path);
  ASSERT_TRUE(j2.ok());
  auto stats = (*j2)->replay();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->sizes_committed, 2u);
  EXPECT_EQ(stats->truncated_bytes, 0u);
  EXPECT_EQ(stats->dirty, (Dirty{{"a", 5}, {"c", 4}}));
}

// commit() syncs only when something was appended since the last
// successful barrier or reset; a failed barrier is retried.
TEST(WriteJournalFaults, CommitSyncsOnlyAfterNewAppends) {
  const std::string path = temp_dir("commit_skip") + "/j.wal";
  auto j = WriteJournal::open(path);
  ASSERT_TRUE(j.ok());
  const auto fsync_checks = [] {
    return fault::stats(fault::Site::kJournalFsync).checks;
  };
  FaultGuard f("journal_fsync:error=io");
  EXPECT_TRUE((*j)->commit().ok());  // fresh journal: nothing to sync
  EXPECT_EQ(fsync_checks(), 0u);

  ASSERT_TRUE((*j)->append_size("a", 1).ok());
  EXPECT_FALSE((*j)->commit().ok());
  EXPECT_EQ(fsync_checks(), 1u);
  EXPECT_FALSE((*j)->commit().ok());  // the failed barrier is retried
  EXPECT_EQ(fsync_checks(), 2u);

  ASSERT_TRUE(fault::configure("").ok());
  ASSERT_TRUE((*j)->commit().ok());
  const uint64_t records = (*j)->record_count();
  ASSERT_TRUE(fault::configure("journal_fsync:error=io").ok());
  EXPECT_TRUE((*j)->commit().ok());  // e.g. close() right after fsync()
  EXPECT_EQ(fsync_checks(), 0u);
  EXPECT_EQ((*j)->record_count(), records);  // no second marker

  ASSERT_TRUE((*j)->append_flushed("a").ok());
  EXPECT_FALSE((*j)->commit().ok());
  EXPECT_EQ(fsync_checks(), 1u);
  ASSERT_TRUE((*j)->checkpoint_reset().ok());
  EXPECT_TRUE((*j)->commit().ok());  // the reset is its own barrier
  EXPECT_EQ(fsync_checks(), 1u);
}

TEST(WriteJournalFaults, ServerSurvivesJournalAppendFailure) {
  WriteNode n("jfault");
  client::HvacClient client(n.copts);
  auto vfd = client.open_write(n.pfs_root + "/ckpt/j.bin", true);
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  ASSERT_TRUE(client.write(*vfd, "ok", 2).ok());
  {
    // A barrier the journal could not record must NOT be acked — an
    // ack without a committed size would be a durability lie.
    FaultGuard f("journal_append:error=io");
    EXPECT_FALSE(client.fsync(*vfd).ok());
  }
  // The handle (and the server) survive: the next barrier commits the
  // bytes the failed one could not, though the client wrote nothing
  // since.
  EXPECT_TRUE(client.fsync(*vfd).ok());
  EXPECT_GE(n.node->aggregated_frame().write_back.journal_records, 2u);
  EXPECT_TRUE(client.close(*vfd).ok());
  std::string got;
  for (int i = 0; i < 500; ++i) {
    got = n.pfs_read("ckpt/j.bin");
    if (got == "ok") break;
    ::usleep(10 * 1000);
  }
  EXPECT_EQ(got, "ok");
}

}  // namespace
}  // namespace hvac
