// Crash-consistency tests for the checkpoint write path: the
// write-ahead journal's framing (round-trip, torn tails, CRC
// corruption, idempotent replay) and the server's graceful ENOSPC
// degradation from write-back to write-through.
#include <gtest/gtest.h>
#include <unistd.h>

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
#include "server/node_runtime.h"
#include "storage/write_journal.h"

namespace hvac {
namespace {

namespace fs = std::filesystem;
using storage::WriteJournal;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "hvac_wal_" + name + "_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// In-memory replay target: reconstructs file images from the log the
// same way the server's recovery pass reconstructs store files.
struct Replayed {
  std::map<std::string, std::vector<uint8_t>> files;

  WriteJournal::ApplyFn apply() {
    return [this](const std::string& path, uint64_t offset, const void* data,
                  size_t size) -> Status {
      auto& f = files[path];
      if (f.size() < offset + size) f.resize(offset + size);
      std::memcpy(f.data() + offset, data, size);
      return Status::Ok();
    };
  }

  WriteJournal::TruncateFn truncate() {
    return [this](const std::string& path) -> Status {
      files[path].clear();
      return Status::Ok();
    };
  }
};

std::vector<uint8_t> bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
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

TEST(WriteJournal, RoundTripAndDirtyTracking) {
  const std::string path = temp_dir("roundtrip") + "/j.wal";
  {
    auto j = WriteJournal::open(path);
    ASSERT_TRUE(j.ok()) << j.error().to_string();
    ASSERT_TRUE((*j)->append_write("a", 0, "hello", 5).ok());
    ASSERT_TRUE((*j)->append_write("b", 0, "world", 5).ok());
    ASSERT_TRUE((*j)->append_flushed("a").ok());
    ASSERT_TRUE((*j)->commit().ok());
  }
  auto j = WriteJournal::open(path);
  ASSERT_TRUE(j.ok());
  Replayed r;
  auto stats = (*j)->replay(r.apply());
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(stats->writes_applied, 2u);
  EXPECT_EQ(stats->bytes_applied, 10u);
  EXPECT_EQ(stats->commits_seen, 1u);
  EXPECT_EQ(stats->flushes_seen, 1u);
  EXPECT_EQ(stats->truncated_bytes, 0u);
  // "a" was flushed after its write; only "b" is still dirty.
  ASSERT_EQ(stats->dirty_paths.size(), 1u);
  EXPECT_EQ(stats->dirty_paths[0], "b");
  EXPECT_EQ(r.files["a"], bytes("hello"));
  EXPECT_EQ(r.files["b"], bytes("world"));
}

TEST(WriteJournal, TornTailTruncatedWithoutError) {
  const std::string path = temp_dir("torn") + "/j.wal";
  uint64_t valid_end = 0;
  {
    auto j = WriteJournal::open(path);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->append_write("a", 0, "data", 4).ok());
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
  Replayed r;
  auto stats = (*j)->replay(r.apply());
  ASSERT_TRUE(stats.ok()) << "torn tail must not fail recovery: "
                          << stats.error().to_string();
  EXPECT_EQ(stats->writes_applied, 1u);
  EXPECT_GT(stats->truncated_bytes, 0u);
  EXPECT_EQ(r.files["a"], bytes("data"));
  // The tail was physically cut: a second incarnation sees a clean log.
  EXPECT_EQ(fs::file_size(path), valid_end);
  auto j2 = WriteJournal::open(path);
  ASSERT_TRUE(j2.ok());
  Replayed r2;
  auto stats2 = (*j2)->replay(r2.apply());
  ASSERT_TRUE(stats2.ok());
  EXPECT_EQ(stats2->truncated_bytes, 0u);
  EXPECT_EQ(stats2->writes_applied, 1u);
}

TEST(WriteJournal, CrcCorruptionCutsTailFromBadRecord) {
  const std::string path = temp_dir("crc") + "/j.wal";
  uint64_t first_end = 0;
  uint64_t total = 0;
  {
    auto j = WriteJournal::open(path);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->append_write("a", 0, "aaaa", 4).ok());
    first_end = (*j)->size_bytes();
    ASSERT_TRUE((*j)->append_write("b", 0, "bbbb", 4).ok());
    ASSERT_TRUE((*j)->commit().ok());
    total = (*j)->size_bytes();
  }
  // Flip one byte inside the second record's body (past its 8-byte
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
  Replayed r;
  auto stats = (*j)->replay(r.apply());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->writes_applied, 1u);
  EXPECT_EQ(stats->truncated_bytes, total - first_end);
  EXPECT_EQ(r.files.count("b"), 0u);
  EXPECT_EQ(r.files["a"], bytes("aaaa"));
  EXPECT_EQ(fs::file_size(path), first_end);
}

TEST(WriteJournal, ReplayIsIdempotent) {
  const std::string path = temp_dir("idem") + "/j.wal";
  {
    auto j = WriteJournal::open(path);
    ASSERT_TRUE(j.ok());
    // Overlapping writes: replay must preserve append order so the
    // later record wins on the overlap.
    ASSERT_TRUE((*j)->append_write("a", 0, "xxxx", 4).ok());
    ASSERT_TRUE((*j)->append_write("a", 2, "yyyy", 4).ok());
    ASSERT_TRUE((*j)->commit().ok());
  }
  std::vector<uint8_t> first;
  for (int round = 0; round < 2; ++round) {
    auto j = WriteJournal::open(path);
    ASSERT_TRUE(j.ok());
    Replayed r;
    auto stats = (*j)->replay(r.apply());
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->writes_applied, 2u);
    EXPECT_EQ(r.files["a"], bytes("xxyyyy"));
    if (round == 0) {
      first = r.files["a"];
    } else {
      EXPECT_EQ(r.files["a"], first);
    }
  }
}

TEST(WriteJournal, TruncateRecordResetsFile) {
  const std::string path = temp_dir("trunc") + "/j.wal";
  {
    auto j = WriteJournal::open(path);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->append_write("a", 0, "stale-old", 9).ok());
    ASSERT_TRUE((*j)->append_truncate("a").ok());
    ASSERT_TRUE((*j)->append_write("a", 0, "new", 3).ok());
    ASSERT_TRUE((*j)->commit().ok());
  }
  auto j = WriteJournal::open(path);
  ASSERT_TRUE(j.ok());
  Replayed r;
  auto stats = (*j)->replay(r.apply(), r.truncate());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->truncates_seen, 1u);
  EXPECT_EQ(r.files["a"], bytes("new"));
}

TEST(WriteJournal, CheckpointResetEmptiesLog) {
  const std::string path = temp_dir("reset") + "/j.wal";
  {
    auto j = WriteJournal::open(path);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->append_write("a", 0, "data", 4).ok());
    ASSERT_TRUE((*j)->commit().ok());
    ASSERT_TRUE((*j)->checkpoint_reset().ok());
    EXPECT_EQ((*j)->size_bytes(), 0u);
    // The journal keeps working after a reset.
    ASSERT_TRUE((*j)->append_write("b", 0, "fresh", 5).ok());
    ASSERT_TRUE((*j)->commit().ok());
  }
  auto j = WriteJournal::open(path);
  ASSERT_TRUE(j.ok());
  Replayed r;
  auto stats = (*j)->replay(r.apply());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->writes_applied, 1u);
  EXPECT_EQ(r.files.count("a"), 0u);
  EXPECT_EQ(r.files["b"], bytes("fresh"));
}

// ---- ENOSPC shed: a full local store degrades to write-through ----

struct WriteNode {
  std::string pfs_root;
  std::string cache_root;
  std::unique_ptr<server::NodeRuntime> node;
  client::HvacClientOptions copts;

  explicit WriteNode(const std::string& name) {
    pfs_root = temp_dir(name + "_pfs");
    cache_root = temp_dir(name + "_cache");
    server::NodeRuntimeOptions o;
    o.pfs_root = pfs_root;
    o.cache_root = cache_root;
    o.instances = 1;
    node = std::make_unique<server::NodeRuntime>(o);
    EXPECT_TRUE(node->start().ok());
    copts.dataset_dir = pfs_root;
    copts.server_endpoints = node->endpoints();
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
  WriteNode n("shed_mid");
  // The first kStoreWrite check (the write-back open) passes; the
  // capacity gate on the first write fires ENOSPC, so the handle
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
  EXPECT_GE(wb.writes, 1u);
  EXPECT_GE(wb.fsyncs, 1u);
  // Once every dirty file is flushed the journal checkpoints to empty.
  for (int i = 0; i < 500 && n.node->aggregated_frame().write_back.dirty_files;
       ++i) {
    ::usleep(10 * 1000);
  }
  EXPECT_EQ(n.node->aggregated_frame().write_back.dirty_files, 0u);
  EXPECT_EQ(n.node->aggregated_frame().write_back.journal_records, 0u);
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

// ---- an undrained stop must not purge the local store ----

TEST(WritePath, UndrainedStopKeepsLocalStoreForReplay) {
  // Burst 1 flushes clean (the journal checkpoint-resets to empty),
  // then burst 2 lands while the PFS is down. The graceful stop's
  // drain times out, and the journal now only covers burst 2 — so the
  // local store files must survive the stop. Purging them would make
  // the next start's replay reconstruct a burst-2-only file with a
  // hole where burst 1 was, and rename that over the complete PFS
  // copy.
  auto n = std::make_unique<WriteNode>("undrained");
  const std::string pfs_root = n->pfs_root;
  const std::string cache_root = n->cache_root;
  {
    client::HvacClient client(n->copts);
    auto vfd = client.open_write(pfs_root + "/ckpt/big.bin", true);
    ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
    auto w1 = client.write(*vfd, "AAAA", 4);
    ASSERT_TRUE(w1.ok()) << w1.error().to_string();
    ASSERT_TRUE(client.fsync(*vfd).ok());
    // Wait until burst 1 is flushed and the journal has reset.
    for (int i = 0;
         i < 500 && n->node->aggregated_frame().write_back.dirty_files; ++i) {
      ::usleep(10 * 1000);
    }
    ASSERT_EQ(n->node->aggregated_frame().write_back.dirty_files, 0u);

    // PFS down (persistent): burst 2 stays in the store + journal.
    ASSERT_TRUE(fault::configure("pfs_write:error=io").ok());
    auto w2 = client.pwrite(*vfd, "BBBB", 4, 4);
    ASSERT_TRUE(w2.ok()) << w2.error().to_string();
    ASSERT_TRUE(client.fsync(*vfd).ok());  // local durability barrier
    ASSERT_TRUE(client.close(*vfd).ok());
  }
  n->node->stop();  // drain times out; store + journal must survive
  n.reset();
  ASSERT_TRUE(fault::configure("").ok());  // PFS back up

  // Restart on the same cache/journal: replay plus the resumed flush
  // must land the complete file.
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
  node2.stop();
}

// A commit that lands after the flusher's checkpoint reset (the client
// fsyncs or closes once its bytes already reached the PFS) must leave
// the journal empty, not holding a lone commit marker.
TEST(WriteJournal, CommitOnEmptyJournalLeavesItEmpty) {
  const std::string path = temp_dir("empty_commit") + "/j.wal";
  auto j = WriteJournal::open(path);
  ASSERT_TRUE(j.ok());
  ASSERT_TRUE((*j)->append_write("a", 0, "data", 4).ok());
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
    EXPECT_FALSE((*j)->append_write("a", 0, "x", 1).ok());
  }
  {
    FaultGuard f("journal_fsync:error=io");
    EXPECT_TRUE((*j)->append_write("a", 0, "x", 1).ok());
    EXPECT_FALSE((*j)->commit().ok());
  }
  // The journal keeps working after injected failures.
  EXPECT_TRUE((*j)->commit().ok());
}

TEST(WriteJournalFaults, ServerSurvivesJournalAppendFailure) {
  WriteNode n("jfault");
  client::HvacClient client(n.copts);
  auto vfd = client.open_write(n.pfs_root + "/ckpt/j.bin", true);
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  {
    // A write the journal could not record must NOT be acked — an ack
    // without a journal record would be a durability lie.
    FaultGuard f("journal_append:error=io");
    EXPECT_FALSE(client.write(*vfd, "xx", 2).ok());
  }
  // The handle (and the server) survive: the next write goes through.
  auto w = client.write(*vfd, "ok", 2);
  ASSERT_TRUE(w.ok()) << w.error().to_string();
  EXPECT_TRUE(client.fsync(*vfd).ok());
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
