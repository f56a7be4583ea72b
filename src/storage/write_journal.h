// Crash-consistent write-ahead journal for the checkpoint write path.
//
// Every write the server acknowledges lands here *before* it touches
// the write-back store, so a kill -9 at any instant loses nothing the
// application was told is durable. The format is a flat append-only
// log of length-prefixed, CRC-framed records:
//
//   ┌────────┬────────┬──────────────────────────────┐
//   │ u32 len│ u32 crc│ body (len bytes)             │  repeated
//   └────────┴────────┴──────────────────────────────┘
//   body := [u8 type][u64 seq][type-specific fields]
//     kWrite   : [u32 path_len][path][u64 offset][u32 data_len][data]
//     kCommit  : (nothing — an fsync barrier marker)
//     kFlushed : [u32 path_len][path]  (PFS now holds the bytes)
//     kTruncate: [u32 path_len][path]  (file reset to empty)
//
// `crc` is CRC-32 (IEEE 802.3 polynomial) over the body. An append is
// gathered, not copied: the frame header and the body up to the
// payload (type, seq and the type's fields) are encoded into a small
// head buffer, the CRC is chained over the head and then the caller's
// bytes, and one exact pwritev at the end of the log stores both. The
// bytes on disk are exactly the layout above, unchanged from when
// records were assembled whole in memory, so older journals replay
// as they are. Appends are buffered in the page cache; `commit()`
// appends a kCommit marker and fdatasync()s — that is the durability
// barrier behind the shim's fsync/fdatasync/close — and does nothing
// when nothing was appended since the last successful barrier or
// reset. On restart, `replay()` walks the log from the
// start: complete CRC-valid records are re-applied idempotently
// (pwrite of the same bytes at the same offset commutes with itself),
// the first torn or CRC-bad record truncates the tail — by
// construction everything after a torn record postdates the last
// acked barrier, so cutting it breaks no promise.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/posix_file.h"

namespace hvac::storage {

// CRC-32 (polynomial 0xEDB88320, the IEEE one), slicing-by-8: eight
// table lookups per 8-byte word. crc32_update extends a finished CRC
// with more bytes, so crc32_update(crc32(a), b) == crc32(a + b).
uint32_t crc32(const void* data, size_t size);
uint32_t crc32_update(uint32_t crc, const void* data, size_t size);

enum class JournalRecordType : uint8_t {
  kWrite = 1,
  kCommit = 2,
  kFlushed = 3,
  kTruncate = 4,  // [path]: file reset to empty (O_TRUNC re-open)
};

// What replay() found and did — surfaced in the metrics frame and by
// `hvacctl journal` as the last-replay summary.
struct JournalReplayStats {
  uint64_t writes_applied = 0;    // kWrite records re-applied
  uint64_t bytes_applied = 0;     // payload bytes across those
  uint64_t commits_seen = 0;
  uint64_t flushes_seen = 0;      // kFlushed records
  uint64_t truncates_seen = 0;    // kTruncate records
  uint64_t truncated_bytes = 0;   // torn/CRC-bad tail cut off
  // Paths with a kWrite after their last kFlushed: still dirty, the
  // caller re-enqueues them to the flusher.
  std::vector<std::string> dirty_paths;
};

class WriteJournal {
 public:
  // Opens (creating if absent) the journal file. The instance starts
  // appending at the current end of file; call replay() first when
  // the file may hold records from a previous incarnation.
  static Result<std::unique_ptr<WriteJournal>> open(const std::string& path);

  // Appends one record. Not durable until commit(). Thread-safe.
  // Fault site: journal_append.
  Status append_write(const std::string& logical_path, uint64_t offset,
                      const void* data, size_t size);
  Status append_flushed(const std::string& logical_path);
  Status append_truncate(const std::string& logical_path);

  // The durability barrier: appends a kCommit marker and fdatasyncs
  // the journal. When this returns Ok, every record appended before
  // it survives kill -9. With nothing appended since the last
  // successful barrier or checkpoint_reset() it does nothing, so a
  // close after fsync pays no second sync and a commit racing the
  // flusher's reset leaves the journal empty; a failed barrier is
  // retried by the next commit. Fault sites: journal_append (the
  // marker), journal_fsync (the sync).
  Status commit();

  // Re-applies the log through `apply` (called for each kWrite record;
  // it must be idempotent), truncating any torn/CRC-bad tail. A bad
  // tail is NOT an error — recovery proceeds with everything before
  // it. Call once, before the first append of this incarnation.
  using ApplyFn = std::function<Status(
      const std::string& logical_path, uint64_t offset, const void* data,
      size_t size)>;
  // Called for kTruncate records; null = ignore them.
  using TruncateFn = std::function<Status(const std::string& logical_path)>;
  Result<JournalReplayStats> replay(const ApplyFn& apply,
                                    const TruncateFn& truncate = nullptr);

  // Truncates the log to empty — valid only when every dirty path has
  // been flushed to the PFS (the caller's bookkeeping proves it).
  // Keeps the journal from growing without bound across checkpoints.
  Status checkpoint_reset();

  // Observability.
  uint64_t size_bytes() const;
  uint64_t record_count() const;   // records appended or replayed
  uint64_t next_seq() const;

  const std::string& path() const { return path_; }

 private:
  WriteJournal(std::string path, PosixFile file, uint64_t end);

  // Stamps seq, len and CRC into `head` (see record_head in the .cc)
  // and appends head + payload as one frame. Caller holds mutex_.
  Status append_record(std::vector<uint8_t>& head, const void* payload,
                       size_t size);
  Status append_path_record(JournalRecordType type,
                            const std::string& logical_path);

  const std::string path_;
  mutable std::mutex mutex_;
  PosixFile file_;
  uint64_t end_ = 0;        // append position
  uint64_t seq_ = 0;        // next record sequence number
  uint64_t records_ = 0;
  bool unsynced_ = false;   // appended since the last barrier or reset
};

}  // namespace hvac::storage
