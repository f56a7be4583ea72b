// Wire serialization for the HVAC RPC protocol.
//
// Fixed little-endian encoding, no alignment assumptions, explicit
// bounds checking on the read side (a malformed frame must surface as
// kProtocol, never as UB). This plays the role Mercury's
// hg_proc_* encoders play in the original HVAC implementation.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/buffer_pool.h"
#include "common/result.h"
#include "common/trace.h"
#include "rpc/socket.h"

namespace hvac::rpc {

using Bytes = std::vector<uint8_t>;

// A file-backed span of a response payload: `length` bytes at `offset`
// of `fd`. The server sends it kernel-to-kernel with sendfile, so
// neither handler nor server stages these bytes in user space. `owner`
// is an opaque keepalive (a LocalStore pin's fd, a shared OpenFile, …)
// that must keep `fd` valid until the response is fully on the wire.
struct FileExtent {
  std::shared_ptr<const void> owner;
  int fd = -1;
  uint64_t offset = 0;
  uint64_t length = 0;
};

// A response payload: a memory head (owned byte vector in the general
// case, pooled buffer lease on the read hot path) optionally followed
// by file-backed extents. On the wire the head and extents form one
// contiguous payload of total_size() bytes; that the extent bytes
// reach the socket by sendfile is invisible to the client.
//
// An extent-free payload may also carry one fd: the server passes it
// to an AF_UNIX peer as SCM_RIGHTS on the frame and closes its own copy
// with the payload; a client that asked for it (RpcClient::
// call_payload with take_fd) finds the received fd here.
class Payload {
 public:
  Payload() = default;
  Payload(Bytes bytes) : rep_(std::move(bytes)) {}  // NOLINT implicit
  Payload(BufferPool::Lease lease)                  // NOLINT implicit
      : rep_(std::move(lease)) {}

  // Memory head accessors (extent bytes are not addressable here —
  // they live in the kernel page cache until send time).
  const uint8_t* data() const {
    if (const auto* b = std::get_if<Bytes>(&rep_)) return b->data();
    return std::get<BufferPool::Lease>(rep_).data();
  }
  size_t size() const {
    if (const auto* b = std::get_if<Bytes>(&rep_)) return b->size();
    return std::get<BufferPool::Lease>(rep_).size();
  }

  void add_extent(FileExtent extent) {
    extents_.push_back(std::move(extent));
  }
  const std::vector<FileExtent>& extents() const { return extents_; }
  bool has_extents() const { return !extents_.empty(); }

  void set_fd(Fd fd) { fd_ = std::move(fd); }
  int fd() const { return fd_.get(); }
  Fd take_fd() { return std::move(fd_); }

  // Wire size of the whole payload: memory head + every extent.
  size_t total_size() const {
    size_t total = size();
    for (const auto& e : extents_) total += e.length;
    return total;
  }
  bool empty() const { return total_size() == 0; }

  // Converts the memory head to a plain vector: moves when owned,
  // copies when pooled (the lease's storage still returns to the
  // pool). Only meaningful for extent-free payloads — received
  // payloads and generic handler responses never carry extents.
  Bytes take_bytes() && {
    if (auto* b = std::get_if<Bytes>(&rep_)) return std::move(*b);
    const auto& lease = std::get<BufferPool::Lease>(rep_);
    return Bytes(lease.data(), lease.data() + lease.size());
  }

 private:
  std::variant<Bytes, BufferPool::Lease> rep_;
  std::vector<FileExtent> extents_;
  Fd fd_;
};

// Wire size of the length prefix put_blob/get_blob use.
constexpr size_t kBlobPrefix = 4;

// Frames a single-blob response around data already resident in
// `lease`: the payload layout is [u32 len][len bytes], so the caller
// preads `data_len` bytes at lease.data() + kBlobPrefix and this stamps
// the prefix in place — no copy, the lease IS the payload.
inline Payload blob_payload(BufferPool::Lease lease, size_t data_len) {
  const uint32_t len = static_cast<uint32_t>(data_len);
  lease.resize(kBlobPrefix + data_len);
  std::memcpy(lease.data(), &len, kBlobPrefix);
  return Payload(std::move(lease));
}

// Frames a single-blob response whose bytes live in a file: the
// memory head is just the [u32 len] prefix, the body is a
// kernel-copied extent. Wire-identical to blob_payload, so the client
// parses both with get_blob_view.
inline Payload blob_extent_payload(FileExtent extent) {
  Bytes head(kBlobPrefix);
  const uint32_t len = static_cast<uint32_t>(extent.length);
  std::memcpy(head.data(), &len, kBlobPrefix);
  Payload p(std::move(head));
  p.add_extent(std::move(extent));
  return p;
}

// ---- Scatter response frame ------------------------------------------
//
// One reply carrying N extents of a single logical file, so a
// read-ahead batch or prefetch collapses into one framed response:
//
//   [u32 n] [ (u64 offset, u32 len) * n ] [extent bytes, concatenated]
//
// `len` is the byte count actually served for that extent (an extent
// that crosses EOF comes back short; a fully-past-EOF extent has
// len 0). The table is the payload's memory head; the bytes are
// kernel-copied extents on the server side and one contiguous pooled
// buffer on the client side.
constexpr size_t kScatterTableEntry = 8 + 4;

inline size_t scatter_table_size(size_t n) {
  return 4 + n * kScatterTableEntry;
}

// Decoded client-side view into a received scatter payload: `data`
// points into the receive buffer (valid while it lives).
struct ScatterView {
  struct Extent {
    uint64_t offset = 0;
    uint32_t length = 0;
    const uint8_t* data = nullptr;
  };
  std::vector<Extent> extents;
};

// (decode_scatter is defined after WireReader below.)

class WireWriter {
 public:
  void put_u8(uint8_t v) { buf_.push_back(v); }
  void put_u16(uint16_t v) { put_bytes_le(&v, 2); }
  void put_u32(uint32_t v) { put_bytes_le(&v, 4); }
  void put_u64(uint64_t v) { put_bytes_le(&v, 8); }
  void put_i64(int64_t v) { put_u64(static_cast<uint64_t>(v)); }
  void put_f64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    put_u64(bits);
  }
  void put_string(std::string_view s) {
    put_u32(static_cast<uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void put_blob(const uint8_t* data, size_t size) {
    put_u32(static_cast<uint32_t>(size));
    buf_.insert(buf_.end(), data, data + size);
  }

  const Bytes& bytes() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }

 private:
  void put_bytes_le(const void* p, size_t n) {
    // Host is little-endian on every supported platform; memcpy keeps
    // this alignment-safe. (A static_assert guards the assumption.)
    static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
                  "big-endian hosts need byte swaps here");
    // resize + memcpy rather than insert: GCC 12 misreports a 2-8
    // byte vector::insert as an overflow (-Wstringop-overflow).
    const size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, p, n);
  }

  Bytes buf_;
};

class WireReader {
 public:
  explicit WireReader(const Bytes& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Result<uint8_t> get_u8() {
    uint8_t v = 0;
    HVAC_RETURN_IF_ERROR(copy_out(&v, 1));
    return v;
  }
  Result<uint16_t> get_u16() {
    uint16_t v = 0;
    HVAC_RETURN_IF_ERROR(copy_out(&v, 2));
    return v;
  }
  Result<uint32_t> get_u32() {
    uint32_t v = 0;
    HVAC_RETURN_IF_ERROR(copy_out(&v, 4));
    return v;
  }
  Result<uint64_t> get_u64() {
    uint64_t v = 0;
    HVAC_RETURN_IF_ERROR(copy_out(&v, 8));
    return v;
  }
  Result<int64_t> get_i64() {
    HVAC_ASSIGN_OR_RETURN(uint64_t v, get_u64());
    return static_cast<int64_t>(v);
  }
  Result<double> get_f64() {
    HVAC_ASSIGN_OR_RETURN(uint64_t bits, get_u64());
    double v = 0;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  Result<std::string> get_string() {
    HVAC_ASSIGN_OR_RETURN(uint32_t len, get_u32());
    if (len > remaining()) {
      return Error(ErrorCode::kProtocol, "string length exceeds frame");
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return s;
  }
  Result<Bytes> get_blob() {
    HVAC_ASSIGN_OR_RETURN(uint32_t len, get_u32());
    if (len > remaining()) {
      return Error(ErrorCode::kProtocol, "blob length exceeds frame");
    }
    Bytes b(data_ + pos_, data_ + pos_ + len);
    pos_ += len;
    return b;
  }

  // Zero-copy blob access: a view into the reader's backing buffer
  // (valid only while that buffer lives). The read hot path copies
  // straight from the view into the caller's buffer, skipping the
  // intermediate vector get_blob allocates.
  struct BlobView {
    const uint8_t* data = nullptr;
    size_t size = 0;
  };
  Result<BlobView> get_blob_view() {
    HVAC_ASSIGN_OR_RETURN(uint32_t len, get_u32());
    if (len > remaining()) {
      return Error(ErrorCode::kProtocol, "blob length exceeds frame");
    }
    BlobView view{data_ + pos_, len};
    pos_ += len;
    return view;
  }

  size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  Status copy_out(void* dst, size_t n) {
    if (remaining() < n) {
      return Error(ErrorCode::kProtocol, "frame truncated");
    }
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
    return Status::Ok();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// Trace-context codec (wire format v2): exactly
// trace::kTraceContextSize bytes, appended to an HVC2 frame header.
inline void put_trace_context(WireWriter& w, const trace::TraceContext& ctx) {
  w.put_u64(ctx.trace_id);
  w.put_u32(ctx.parent_span_id);
  w.put_u32(ctx.flags);
}

inline Result<trace::TraceContext> get_trace_context(WireReader& r) {
  trace::TraceContext ctx;
  HVAC_ASSIGN_OR_RETURN(ctx.trace_id, r.get_u64());
  HVAC_ASSIGN_OR_RETURN(ctx.parent_span_id, r.get_u32());
  HVAC_ASSIGN_OR_RETURN(ctx.flags, r.get_u32());
  return ctx;
}

inline Result<ScatterView> decode_scatter(const uint8_t* payload,
                                          size_t size) {
  WireReader r(payload, size);
  HVAC_ASSIGN_OR_RETURN(uint32_t n, r.get_u32());
  if (r.remaining() < static_cast<size_t>(n) * kScatterTableEntry) {
    return Error(ErrorCode::kProtocol, "scatter table exceeds frame");
  }
  ScatterView view;
  view.extents.resize(n);
  uint64_t data_bytes = 0;
  for (uint32_t i = 0; i < n; ++i) {
    HVAC_ASSIGN_OR_RETURN(view.extents[i].offset, r.get_u64());
    HVAC_ASSIGN_OR_RETURN(view.extents[i].length, r.get_u32());
    data_bytes += view.extents[i].length;
  }
  if (r.remaining() != data_bytes) {
    return Error(ErrorCode::kProtocol, "scatter data length mismatch");
  }
  const uint8_t* cursor = payload + (size - r.remaining());
  for (auto& e : view.extents) {
    e.data = cursor;
    cursor += e.length;
  }
  return view;
}

}  // namespace hvac::rpc
