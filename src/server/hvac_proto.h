// Application-level RPC schema between HVAC clients and servers.
// Shared by src/server and src/client; versioned by the frame magic.
#pragma once

#include <cstdint>

namespace hvac::proto {

// Raw-wire only: kRead, kClose, the legacy kOpen form (no `stateless`
// flag) and fd-mode kReadScatter have no HvacClient sender. They stay
// served, with the server's remote-fd table behind them, because the
// benchmark's raw-RPC pass still sends them.
// TODO: remove them, with open_fds_, once that pass sends the
// stateless kOpen (opcode numbers are never reused).
enum Opcode : uint16_t {
  kPing = 1,      // ()                 -> ()
  kOpen = 2,      // (path [, stateless u8 [, takes_fd u8
                  //  [, n u8, slab_ino u64 * n]]])
                  //   -> (remote_fd u64, size u64, served_from u8
                  //       [, inline blob [, base u64, slab_ino u64]])
                  // With `stateless` = 1 (every HvacClient open) the
                  // server keeps no per-open state: remote_fd is 0 and
                  // the reply carries a trailing blob holding the whole
                  // file when size <= kMaxInlineBytes, empty otherwise.
                  // Reads then address the file by path (kReadScatter
                  // mode 1) and close is client-local, so a warm small
                  // sample costs one round trip. A cached copy is
                  // answered on the reactor; a miss waits on the mover
                  // from the pool. Without the flag (raw-wire only) the
                  // server allocates a remote fd and replies with the
                  // prefix alone.
                  // With `takes_fd` = 1 (every HvacClient open) the
                  // request lists the inodes of the slabs the client
                  // already holds an fd on for this server (at most
                  // kMaxHeldSlabs). A slab-cached file of any size
                  // asked for over AF_UNIX by a peer of the server's
                  // uid or root is answered with an empty blob, the
                  // slot's `base` and its slab's inode; a read-only fd
                  // on the slab rides as SCM_RIGHTS on the reply frame
                  // only when that inode is not listed. The client
                  // preads base + offset with no further RPC
                  // (DESIGN.md §20). A reply naming an inode that is
                  // neither listed nor carried is what a reader at
                  // RLIMIT_NOFILE sees; the client asks again without
                  // `takes_fd`.
  kRead = 3,      // (remote_fd, offset, count) -> (blob). Raw-wire only.
  kClose = 4,     // (remote_fd)        -> (). Raw-wire only.
  kStat = 5,      // (path)             -> (size)
  kPrefetch = 6,  // Retired: a batch of 1; send a one-path
                  // kPrefetchBatch. No handler (kUnimplemented); the
                  // number is never reused.
  kMetrics = 7,   // ()                 -> (hits, misses, dedup_waits,
                  //                        evictions, bytes_cache,
                  //                        bytes_pfs, fallbacks, open_fds)
  kReadSegment = 8,  // (path, seg_index, segment_bytes,
                     //  offset_in_segment, count) -> (blob)
                     // Stateless segment-granular read: the unit of
                     // caching is one segment, homed independently by
                     // segment_key(path, idx) (paper §III-E extension).
  kReadScatter = 9,  // (mode: u8 0=fd/1=path, remote_fd u64 | path,
                     //  n u32, (offset u64, len u32) * n)
                     // -> scatter frame (rpc/wire.h decode_scatter):
                     // one reply, N extents, each kernel-copied on the
                     // hit path. Extents crossing EOF come back short.
                     // Path mode is the client's only read; fd mode is
                     // raw-wire only. A cached reply of at most
                     // kMaxInlineBytes is answered on the reactor.
  kPrefetchBatch = 10,  // (n u32, path * n) -> (n u32, status u8 * n)
                        // The only prefetch: one round trip warms a
                        // whole epoch's worth of files. Every path is
                        // submitted to the mover up front (the fetches
                        // overlap) and each gets a PrefetchStatus:
                        // cached, miss (fetch failed / capacity
                        // overflow), or shed (mover queue full — the
                        // client should re-pace and retry, not blind-
                        // retry the whole batch). Old clients read
                        // shed (2) as not-cached, which is safe.
  kTraceDump = 11,  // () -> span dump (core/trace_wire.h encode_spans):
                    // drains the process-wide trace rings. Consuming:
                    // two hvacctl instances polling one server split
                    // the spans between them.
  kPackedIndex = 12,  // () -> (present u8 [, index blob])
                      // The dataset's packed-container index
                      // (storage/packed_format.h), verbatim. A client
                      // that fetched it once resolves packed sample
                      // paths locally — open/stat cost zero round
                      // trips, and reads address samples by path via
                      // kReadScatter (the server translates to
                      // container offsets).
  kWriteOpen = 13,  // (path, trunc u8) -> (remote_fd u64, mode u8)
                    // Opens a checkpoint file for writing through the
                    // write-back store. `mode` is a WriteMode: the
                    // server may answer kWriteThrough when local NVMe
                    // is already over budget.
  kWrite = 14,      // (remote_fd u64, offset u64, blob) -> (written u32)
                    // Journal append + local-store pwrite. Ack means
                    // the bytes are in the write-back tier (durable
                    // only after kFsync / kWriteClose).
  kFsync = 15,      // (remote_fd u64, level u8) -> ()
                    // Durability barrier. level is a WriteDurability:
                    // kLocal waits for the journal commit fdatasync,
                    // kPfs additionally waits until the flusher has
                    // landed the file on the PFS.
  kWriteClose = 16,  // (remote_fd u64, level u8) -> ()
                     // fsync(level) semantics, then drops the handle.
  kTimeSeries = 17,  // () -> time-series frame (core/timeseries.h):
                     // the collector's ring of per-interval metric
                     // deltas, oldest first. Empty (0 samples,
                     // interval_ms 0) when HVAC_TS_INTERVAL_MS=0
                     // disabled the collector.
};

// kWriteOpen response mode / per-handle write routing.
enum WriteMode : uint8_t {
  kWriteBack = 0,     // journal + local NVMe, async PFS flush
  kWriteThrough = 1,  // local NVMe full: bytes go straight to the PFS
};

// kFsync / kWriteClose barrier levels (HVAC_WRITE_DURABILITY).
enum WriteDurability : uint8_t {
  kDurabilityLocal = 0,  // journal commit record is on local media
  kDurabilityPfs = 1,    // file is fully flushed to the PFS
};

// Per-path answer in the kPrefetchBatch response. kPrefetchShed means
// the mover queue was full when the path was submitted: the file was
// NOT fetched and a later, slower retry will likely succeed — the
// client-side scheduler backs off instead of hammering the queue.
enum PrefetchStatus : uint8_t {
  kPrefetchMiss = 0,    // fetch failed or fell back to the PFS
  kPrefetchCached = 1,  // file is resident in the node-local cache
  kPrefetchShed = 2,    // mover backpressure: re-pace and retry
};

// served_from values in the kOpen response.
enum ServedFrom : uint8_t {
  kFromCache = 0,
  kFromPfsFallback = 1,  // capacity overflow: server reads through PFS
};

// Requests larger than this are split by the client (the "bulk
// transfer" chunk size; Mercury would do an RDMA pull of similar
// granularity).
constexpr uint32_t kMaxReadChunk = 4u << 20;

// Files up to this size travel whole in the stateless kOpen reply. 64
// KiB covers a typical image/text training sample (and every file of
// the benchmark's 16 KiB small-file set) while keeping a reactor-side
// reply short enough not to stall the reactor's other connections.
// A protocol constant, not a knob: the client validates replies
// against it.
constexpr uint32_t kMaxInlineBytes = 64u << 10;

// Bound on the slab inodes one kOpen lists: the slab fds a client
// keeps per server. Slabs are 64 MiB, so 16 cover a gigabyte of
// samples; the client drops the least recently used beyond them.
constexpr uint8_t kMaxHeldSlabs = 16;

// Bounds on one kReadScatter request: at most kMaxScatterExtents
// extents of at most kMaxReadChunk each, and at most kMaxScatterBytes
// total so the framed response (table + data) stays well under the
// 64 MiB frame bound.
constexpr uint32_t kMaxScatterExtents = 16;
constexpr uint32_t kMaxScatterBytes = 32u << 20;

// Bound on one kPrefetchBatch request.
constexpr uint32_t kMaxPrefetchBatch = 256;

}  // namespace hvac::proto
