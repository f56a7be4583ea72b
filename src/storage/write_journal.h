// Crash-consistent journal for the checkpoint write path.
//
// The bytes of a checkpoint live in one place on the node: the store's
// named file, written by the server's kWrite handler or by a local
// writer through a passed fd. The journal holds no payload. It records,
// per barrier, how many bytes of which file are committed, so a kill -9
// or a power loss at any instant loses nothing the application was told
// is durable. The format is a flat append-only log of length-prefixed,
// CRC-framed records:
//
//   ┌────────┬────────┬──────────────────────────────┐
//   │ u32 len│ u32 crc│ body (len bytes)             │  repeated
//   └────────┴────────┴──────────────────────────────┘
//   body := [u8 type][u64 seq][type-specific fields]
//     kSize    : [u32 path_len][path][u64 size]  (committed at the next
//                                                 kCommit)
//     kCommit  : (nothing — an fsync barrier marker)
//     kFlushed : [u32 path_len][path]  (PFS now holds the bytes)
//     kTruncate: [u32 path_len][path]  (file reset to empty)
//
// Record type 1 held a write's payload; it is retired and its number is
// never reused. A journal that holds one was written by an older build
// whose acked bytes sit in that journal and nowhere else, so replay()
// refuses it rather than drop them (DESIGN.md §21).
//
// `crc` is CRC-32 (IEEE 802.3 polynomial) over the body. The barrier
// (the server's sync_handle) is ordered write-back, ext4's
// data=ordered for one file: fdatasync the named file, then
// append_size() + commit(), whose fdatasync makes the record durable
// only once the bytes it covers are. `commit()` does nothing when
// nothing was appended since the last successful barrier or reset. On
// restart, `replay()` walks the log from the start and returns, per
// path the PFS does not hold yet, its last committed size; the caller
// trims the named file back to it, so no unacked tail is presented as
// committed. The first torn or CRC-bad record truncates the tail — by
// construction everything after it postdates the last acked barrier.
#pragma once

#include <cstdint>
#include <map>
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
  kRetiredWrite = 1,  // [path][u64 offset][u32 len][data]: replay refuses
  kCommit = 2,
  kFlushed = 3,
  kTruncate = 4,  // [path]: file reset to empty (O_TRUNC re-open)
  kSize = 5,      // [path][u64 size]: committed by the next kCommit
};

// What replay() found and did — surfaced in the metrics frame and by
// `hvacctl journal` as the last-replay summary.
struct JournalReplayStats {
  uint64_t sizes_committed = 0;   // kSize records a kCommit covered
  uint64_t commits_seen = 0;
  uint64_t flushes_seen = 0;      // kFlushed records
  uint64_t truncates_seen = 0;    // kTruncate records
  uint64_t truncated_bytes = 0;   // torn/CRC-bad tail cut off
  // Paths whose last committed size the PFS does not hold yet, with
  // that size: the caller trims each named file to it and re-enqueues
  // the path to the flusher. A kFlushed clears a path; so does a
  // kTruncate, since the application itself discarded those bytes and
  // the PFS keeps its older copy.
  std::map<std::string, uint64_t> dirty;
};

class WriteJournal {
 public:
  // Opens (creating if absent) the journal file. The instance starts
  // appending at the current end of file; call replay() first when
  // the file may hold records from a previous incarnation.
  static Result<std::unique_ptr<WriteJournal>> open(const std::string& path);

  // Appends one record. Not durable until commit(). Thread-safe.
  // Fault site: journal_append.
  // `size` bytes of `logical_path`'s file are committed once the next
  // kCommit is durable.
  Status append_size(const std::string& logical_path, uint64_t size);
  // The extent form of append_size, for callers that journal each
  // write: records offset + size. `data` is not stored — the bytes
  // live in the file the record names.
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

  // Walks the log and returns what it commits (see JournalReplayStats),
  // truncating any torn/CRC-bad tail. A bad tail is NOT an error —
  // recovery proceeds with everything before it. A retired kWrite
  // record is: kInvalidArgument, and the log is left as it is. Call
  // once, before the first append of this incarnation.
  Result<JournalReplayStats> replay();

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
