// Metrics frame v2 — the self-describing payload behind proto::kMetrics.
//
// The v1 payload was eight bare u64 counters with no version marker,
// so it could never grow without breaking deployed hvacctl binaries.
// v2 keeps those eight words as an immutable prefix (a v1 decoder
// reads them and ignores the rest) and appends a versioned,
// length-prefixed section list a v2 decoder walks by id:
//
//   bytes 0..63   8 x u64: hits, misses, dedup_waits, evictions,
//                 bytes_from_cache, bytes_from_pfs, pfs_fallbacks,
//                 open_fds                      <- v1 clients stop here
//   u32 magic     'HVM2' (absent in a v1 frame)
//   u16 version   kFrameVersion
//   u16 count     number of sections
//   sections      [u16 id][u32 byte_len][byte_len bytes] ...
//
// Which u64 words each section carries, in which order, is the field
// table in core/metrics_schema.h.
//
// Compatibility rules (both directions hold by construction):
//   * old client, v2 frame: the prefix is byte-identical to v1.
//   * new client, v1 frame: no magic after the prefix -> sections
//     default to zero and version reports 1.
//   * unknown section ids are skipped by length; sections themselves
//     may grow — decoders read the fields they know and ignore the
//     tail, so adding a field is not a version bump.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/metrics.h"
#include "rpc/wire.h"

namespace hvac::core {

constexpr uint32_t kMetricsFrameMagic = 0x324D5648;  // "HVM2"
constexpr uint16_t kFrameVersion = 2;

// Section ids. New sections get new ids; never reuse or renumber.
enum MetricsSection : uint16_t {
  kSectionHandleCache = 1,
  kSectionBufferPool = 2,
  kSectionReadAhead = 3,
  kSectionLatency = 4,
  kSectionResilience = 5,
  kSectionZeroCopy = 6,
  kSectionMetaCache = 7,
  kSectionTrace = 8,
  kSectionReactors = 9,
  kSectionWriteBack = 10,
  kSectionPrefetch = 11,
  kSectionStall = 12,
};

// The local store's read fds (storage::LocalStore::FdStats).
struct HandleCacheStats {
  uint64_t hits = 0;    // reads served from a resident slab's fd
  uint64_t misses = 0;  // per-read opens
  uint64_t open = 0;    // slab fds held
  uint64_t pinned = 0;  // slabs with at least one active reader
  uint64_t deferred_closes = 0;  // slabs dropped while pinned; fd closed late
  uint64_t capacity = 0;         // fd budget, in slabs
};

struct BufferPoolStats {
  uint64_t leases = 0;           // total acquires
  uint64_t pool_hits = 0;        // served from a free list
  uint64_t fallback_allocs = 0;  // had to hit the allocator
  uint64_t recycled = 0;         // leases returned to a free list
  uint64_t dropped = 0;          // leases freed (list full)
};

struct ReadAheadStats {
  uint64_t issued = 0;    // chunks requested ahead of the application
  uint64_t consumed = 0;  // reads served from a pending chunk
  uint64_t wasted = 0;    // pending chunks discarded unread
};

// Fault-domain counters (rpc/health.h).
struct ResilienceStats {
  uint64_t breaker_opens = 0;
  uint64_t breaker_closes = 0;
  uint64_t breaker_probes = 0;
  uint64_t breaker_shed = 0;
  uint64_t retries = 0;
  uint64_t deadline_misses = 0;
  uint64_t server_shed = 0;
  uint64_t mover_rejects = 0;
  uint64_t drains = 0;
  uint64_t drained_requests = 0;
  uint64_t faults_injected = 0;  // HVAC_FAULT harness activity
};

// Kernel zero-copy send path (rpc/socket.h ZeroCopyCounters).
struct ZeroCopyStats {
  uint64_t sendfile_sends = 0;
  uint64_t sendfile_bytes = 0;
  uint64_t short_resumes = 0;  // partial kernel sends resumed in-place
  uint64_t fd_passes = 0;      // cache fds passed to local clients
  uint64_t fd_pass_bytes = 0;  // bytes of the files those fds read
};

// Client metadata cache (client/meta_cache.h).
struct MetaCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t expired = 0;
  uint64_t invalidated = 0;
};

// Checkpoint write path (server/hvac_server.cc write handlers,
// storage/write_journal.h, core/flush_manager.h).
struct WriteBackStats {
  uint64_t writes = 0;          // kWrite ops acked on the write-back tier
  uint64_t bytes_written = 0;
  uint64_t fsyncs = 0;          // durability barriers honored
  uint64_t dirty_bytes = 0;     // written, not yet flushed to the PFS
  uint64_t dirty_files = 0;
  uint64_t journal_records = 0;  // journal depth (records)
  uint64_t journal_bytes = 0;    // journal depth (bytes)
  uint64_t flushed_files = 0;
  uint64_t flush_retries = 0;
  uint64_t flush_failures = 0;
  uint64_t flush_queue_depth = 0;
  uint64_t flush_inflight = 0;
  uint64_t flush_lag_ms = 0;     // age of the oldest unflushed file
  uint64_t write_through_sheds = 0;  // handles shed to PFS (ENOSPC)
  uint64_t write_through_bytes = 0;
  uint64_t replay_writes = 0;    // last restart's replay: committed
                                 // size records it honoured
  uint64_t replay_bytes = 0;     // committed bytes it re-queued
  uint64_t replay_truncated_bytes = 0;  // torn/CRC-bad tail cut
  uint64_t replay_dirty_files = 0;      // re-queued to the flusher
  // Checkpoint bytes written into node-local files: by kWrite, or
  // through a passed fd (counted at the writer's next barrier).
  uint64_t local_write_bytes = 0;
};

// Clairvoyant prefetch pipeline (client/prefetch_scheduler.h) plus the
// server-side duplicate-fetch suppression in the data mover. On the
// wire a reserved zero word sits between the words and paced_delay.
struct PrefetchStats {
  uint64_t planned = 0;    // samples accepted into access plans
  uint64_t issued = 0;     // samples sent in prefetch batches
  uint64_t completed = 0;  // answered cached
  uint64_t shed = 0;       // answered shed (mover backpressure)
  uint64_t late = 0;       // training cursor beat the prefetch
  uint64_t hit_after_prefetch = 0;  // cursor found the sample warmed
  uint64_t deduped = 0;         // mover submits coalesced in flight
  uint64_t dedup_inflight = 0;  // gauge: paths with a fetch in flight
  LatencySnapshot paced_delay;  // token-bucket stall per issued batch
};

// Per-epoch I/O stall attribution from the client read path
// (core::StallCounters, charged by client/hvac_client.cc): where
// intercepted-read wall time went.
struct StallStats {
  std::vector<StallEpochRow> epochs;
};

// Trace-ring health (common/trace.h); `dropped` rising means
// HVAC_TRACE_RING is too small for the drain cadence.
struct TraceStats {
  uint64_t emitted = 0;
  uint64_t dropped = 0;
  uint64_t rings = 0;
  uint64_t ring_capacity = 0;
  uint64_t occupancy = 0;
};

// Reactor counters (rpc/rpc_server.h): one row per server instance.
struct ReactorStats {
  struct PerReactor {
    uint64_t conns = 0;
    uint64_t requests = 0;
    // Always 0: the server no longer steals work. The word keeps the
    // section's wire layout until perfbench stops reading it.
    uint64_t steals = 0;
    uint64_t shed = 0;
    uint64_t steal_backoffs = 0;  // always 0, like steals
    // Of `conns`, those accepted over the node-local alias.
    uint64_t local_conns = 0;
  };
  std::vector<PerReactor> reactors;
};

struct MetricsFrame {
  // Decoded frame version: kFrameVersion, or 1 for a legacy payload
  // (sections all zero).
  uint16_t version = kFrameVersion;

  MetricsSnapshot cache;  // the seven v1 cache counters
  uint64_t open_fds = 0;  // v1 prefix word 8

  HandleCacheStats handle_cache;
  BufferPoolStats buffer_pool;
  ReadAheadStats readahead;
  ResilienceStats resilience;
  ZeroCopyStats zerocopy;
  MetaCacheStats meta_cache;
  TraceStats trace;
  ReactorStats reactor;
  WriteBackStats write_back;
  PrefetchStats prefetch;
  StallStats stall;
  // Keyed by proto::Opcode value; only ops with samples are present.
  std::map<uint16_t, LatencySnapshot> op_latency;

  rpc::Bytes encode() const;
  static Result<MetricsFrame> decode(const rpc::Bytes& bytes);

  // Folds `other` in by each field's kind (core/metrics_schema.h):
  // counters and gauges sum, max-gauges keep the larger. Instances of
  // one process (kSameProcess) repeat its process-scope fields, so
  // those keep this frame's values.
  enum class Peers : uint8_t { kSeparateProcesses, kSameProcess };
  void merge(const MetricsFrame& other,
             Peers peers = Peers::kSeparateProcesses);

  // JSON object (single line) with every section spelled out — the
  // `hvacctl metrics --json` format.
  std::string to_json() const;
  // The `,"<group>":{...}` piece of to_json() for one section's words.
  std::string section_json(uint16_t id) const;
};

// Human name for a proto::Opcode value ("read", "open", ...);
// "op<N>" for ids this build does not know.
std::string op_name(uint16_t opcode);

}  // namespace hvac::core
