#include "storage/write_journal.h"

#include <array>
#include <cstring>
#include <unordered_set>

#include "common/fault_injection.h"

namespace hvac::storage {

namespace {

// A record body is [u8 type][u64 seq] plus at most a path, an offset,
// a length prefix and one client-chunked data blob (<= 4 MiB on the
// wire). Anything claiming to be bigger is corruption, not data —
// replay treats it like a CRC failure and truncates.
constexpr uint32_t kMaxBody = (8u << 20);
constexpr size_t kFrameHeader = 8;  // u32 len + u32 crc

// Byte offset of the seq field in a frame: [u32 len][u32 crc][u8 type].
constexpr size_t kSeqAt = kFrameHeader + 1;
// Frame header plus the body fields every record type starts with.
constexpr size_t kHeadBytes = kSeqAt + 8;

// A record's head: the frame header and its body up to the payload,
// [u32 len][u32 crc][u8 type][u64 seq][type-specific fields]. len, crc
// and seq are filled in by append_record() under the journal lock.
std::vector<uint8_t> record_head(JournalRecordType type, size_t fields) {
  std::vector<uint8_t> head;
  head.reserve(kHeadBytes + fields);
  head.resize(kHeadBytes);
  head[kFrameHeader] = static_cast<uint8_t>(type);
  return head;
}

void put_bytes(std::vector<uint8_t>& out, const void* p, size_t n) {
  const size_t at = out.size();
  out.resize(at + n);
  if (n > 0) std::memcpy(out.data() + at, p, n);
}

void put_u32(std::vector<uint8_t>& out, uint32_t v) { put_bytes(out, &v, 4); }
void put_u64(std::vector<uint8_t>& out, uint64_t v) { put_bytes(out, &v, 8); }

void put_string(std::vector<uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<uint32_t>(s.size()));
  put_bytes(out, s.data(), s.size());
}

// Bounds-checked little-endian cursor over a replayed body. Any
// overrun flags `bad` — the caller treats the record as corrupt.
struct Cursor {
  const uint8_t* p;
  size_t left;
  bool bad = false;

  uint8_t u8() {
    if (left < 1) { bad = true; return 0; }
    const uint8_t v = *p;
    ++p; --left;
    return v;
  }
  uint32_t u32() {
    if (left < 4) { bad = true; return 0; }
    uint32_t v;
    std::memcpy(&v, p, 4);
    p += 4; left -= 4;
    return v;
  }
  uint64_t u64() {
    if (left < 8) { bad = true; return 0; }
    uint64_t v;
    std::memcpy(&v, p, 8);
    p += 8; left -= 8;
    return v;
  }
  std::string str() {
    const uint32_t n = u32();
    if (bad || left < n) { bad = true; return {}; }
    std::string s(reinterpret_cast<const char*>(p), n);
    p += n; left -= n;
    return s;
  }
};

// Slicing-by-8 tables: kCrcTables[0] is the classic bytewise table;
// kCrcTables[k][b] is the CRC of byte b followed by k zero bytes, so
// eight lookups fold one little-endian 8-byte word into the state.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

}  // namespace

uint32_t crc32_update(uint32_t crc, const void* data, size_t size) {
  static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
                "the word step assumes little-endian loads");
  const auto& t = kCrcTables;
  const auto* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  for (; size >= 8; p += 8, size -= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
          t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t crc32(const void* data, size_t size) {
  return crc32_update(0, data, size);
}

WriteJournal::WriteJournal(std::string path, PosixFile file, uint64_t end)
    : path_(std::move(path)), file_(std::move(file)), end_(end) {}

Result<std::unique_ptr<WriteJournal>> WriteJournal::open(
    const std::string& path) {
  HVAC_ASSIGN_OR_RETURN(PosixFile f, PosixFile::open_rw(path));
  HVAC_ASSIGN_OR_RETURN(uint64_t end, f.size());
  return std::unique_ptr<WriteJournal>(
      new WriteJournal(path, std::move(f), end));
}

Status WriteJournal::append_record(std::vector<uint8_t>& head,
                                   const void* payload, size_t size) {
  HVAC_RETURN_IF_ERROR(fault::check(fault::Site::kJournalAppend));
  const uint32_t len =
      static_cast<uint32_t>(head.size() - kFrameHeader + size);
  std::memcpy(head.data() + kSeqAt, &seq_, 8);
  const uint32_t crc = crc32_update(
      crc32(head.data() + kFrameHeader, head.size() - kFrameHeader),
      payload, size);
  std::memcpy(head.data(), &len, 4);
  std::memcpy(head.data() + 4, &crc, 4);
  const iovec iov[2] = {{head.data(), head.size()},
                        {const_cast<void*>(payload), size}};
  Result<size_t> n = file_.pwritev(iov, size > 0 ? 2 : 1, end_);
  if (!n.ok()) {
    // Cut any partial frame: the next append lands at end_ again and
    // may not cover all of it, and replay must never parse the rest.
    (void)file_.truncate(end_);
    return n.error();
  }
  end_ += *n;
  ++seq_;
  ++records_;
  unsynced_ = true;
  return Status::Ok();
}

Status WriteJournal::append_write(const std::string& logical_path,
                                  uint64_t offset, const void* data,
                                  size_t size) {
  std::vector<uint8_t> head = record_head(
      JournalRecordType::kWrite, 4 + logical_path.size() + 8 + 4);
  put_string(head, logical_path);
  put_u64(head, offset);
  put_u32(head, static_cast<uint32_t>(size));
  std::lock_guard<std::mutex> lock(mutex_);
  return append_record(head, data, size);
}

Status WriteJournal::append_path_record(JournalRecordType type,
                                        const std::string& logical_path) {
  std::vector<uint8_t> head = record_head(type, 4 + logical_path.size());
  put_string(head, logical_path);
  std::lock_guard<std::mutex> lock(mutex_);
  return append_record(head, nullptr, 0);
}

Status WriteJournal::append_flushed(const std::string& logical_path) {
  return append_path_record(JournalRecordType::kFlushed, logical_path);
}

Status WriteJournal::append_truncate(const std::string& logical_path) {
  return append_path_record(JournalRecordType::kTruncate, logical_path);
}

Status WriteJournal::commit() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Nothing appended since the last successful barrier or reset: the
  // log is already as durable as a barrier would make it. This also
  // keeps a commit racing the flusher's reset from leaving a lone
  // marker in an otherwise empty journal.
  if (!unsynced_) return Status::Ok();
  std::vector<uint8_t> head = record_head(JournalRecordType::kCommit, 0);
  HVAC_RETURN_IF_ERROR(append_record(head, nullptr, 0));
  HVAC_RETURN_IF_ERROR(fault::check(fault::Site::kJournalFsync));
  HVAC_RETURN_IF_ERROR(file_.datasync());
  unsynced_ = false;
  return Status::Ok();
}

Result<JournalReplayStats> WriteJournal::replay(const ApplyFn& apply,
                                                const TruncateFn& truncate) {
  std::lock_guard<std::mutex> lock(mutex_);
  JournalReplayStats stats;

  // Snapshot the log. Reading it whole is fine: the journal is
  // checkpoint-reset whenever all dirty paths drain, so its size is
  // bounded by one burst of unflushed writes.
  std::vector<uint8_t> log;
  log.resize(end_);
  size_t got = 0;
  while (got < log.size()) {
    HVAC_ASSIGN_OR_RETURN(
        size_t n, file_.pread(log.data() + got, log.size() - got, got));
    if (n == 0) break;  // file shorter than expected: treat as torn
    got += n;
  }
  log.resize(got);

  // Last-writer-wins per path: a kWrite marks it dirty, a kFlushed
  // with a later seq clears it.
  std::unordered_set<std::string> dirty;
  uint64_t max_seq = 0;

  size_t pos = 0;
  size_t valid_end = 0;
  while (log.size() - pos >= kFrameHeader) {
    uint32_t len = 0;
    uint32_t crc = 0;
    std::memcpy(&len, log.data() + pos, 4);
    std::memcpy(&crc, log.data() + pos + 4, 4);
    if (len > kMaxBody || log.size() - pos - kFrameHeader < len) {
      break;  // torn tail (or garbage length)
    }
    const uint8_t* body = log.data() + pos + kFrameHeader;
    if (crc32(body, len) != crc) break;  // bit rot / torn overwrite

    Cursor c{body, len};
    const auto type = static_cast<JournalRecordType>(c.u8());
    const uint64_t seq = c.u64();
    bool parsed = true;
    switch (type) {
      case JournalRecordType::kWrite: {
        const std::string path = c.str();
        const uint64_t offset = c.u64();
        const uint32_t data_len = c.u32();
        if (c.bad || c.left < data_len) {
          parsed = false;
          break;
        }
        HVAC_RETURN_IF_ERROR(apply(path, offset, c.p, data_len));
        ++stats.writes_applied;
        stats.bytes_applied += data_len;
        dirty.insert(path);
        break;
      }
      case JournalRecordType::kCommit:
        parsed = !c.bad;
        if (parsed) ++stats.commits_seen;
        break;
      case JournalRecordType::kFlushed: {
        const std::string path = c.str();
        parsed = !c.bad;
        if (parsed) {
          ++stats.flushes_seen;
          dirty.erase(path);
        }
        break;
      }
      case JournalRecordType::kTruncate: {
        const std::string path = c.str();
        parsed = !c.bad;
        if (parsed) {
          ++stats.truncates_seen;
          if (truncate) {
            HVAC_RETURN_IF_ERROR(truncate(path));
            // Still dirty: the truncation itself must reach the PFS.
            dirty.insert(path);
          }
        }
        break;
      }
      default:
        parsed = false;
        break;
    }
    if (!parsed) break;  // framed correctly but body is garbage
    max_seq = seq + 1 > max_seq ? seq + 1 : max_seq;
    pos += kFrameHeader + len;
    valid_end = pos;
  }

  stats.truncated_bytes = end_ - valid_end;
  if (stats.truncated_bytes > 0) {
    HVAC_RETURN_IF_ERROR(file_.truncate(valid_end));
    HVAC_RETURN_IF_ERROR(file_.datasync());
    end_ = valid_end;
  }
  seq_ = max_seq;
  records_ = stats.writes_applied + stats.commits_seen +
             stats.flushes_seen + stats.truncates_seen;
  stats.dirty_paths.assign(dirty.begin(), dirty.end());
  return stats;
}

Status WriteJournal::checkpoint_reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  HVAC_RETURN_IF_ERROR(file_.truncate(0));
  HVAC_RETURN_IF_ERROR(file_.datasync());
  end_ = 0;
  records_ = 0;
  unsynced_ = false;
  return Status::Ok();
}

uint64_t WriteJournal::size_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return end_;
}

uint64_t WriteJournal::record_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

uint64_t WriteJournal::next_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return seq_;
}

}  // namespace hvac::storage
