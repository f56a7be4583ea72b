// HvacClient — the client-side library behind the LD_PRELOAD shim and
// the public C++ API (paper §III-C/D).
//
// The client owns the server map (endpoint per server index, in
// allocation order), computes each file's home with the metadata-less
// Placement function, and forwards opens and reads over RPC. Read fds
// are stateless on the server: open is one kOpen that returns the size
// (and the whole file when it is small; a home on this node instead
// names the cache slab holding the file, passing a read-only fd on it
// the first time, and that fd then serves every read), other reads
// address the file by path, and close is local. A small file whose open
// carried no bytes (packed index, meta cache) is fetched whole by its
// first read, so every small fd costs one round trip. Reads above the
// chunk size are split into multiple bulk pulls. On any transport failure the
// client fails open: replicas are tried in order, and as a last
// resort the file is read directly from the PFS mount — a cache must
// never kill a training run (paper §III-H).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/meta_cache.h"
#include "client/packed_catalog.h"
#include "client/readahead_policy.h"
#include "common/result.h"
#include "core/fd_table.h"
#include "core/placement.h"
#include "rpc/async_client.h"
#include "rpc/rpc_client.h"

namespace hvac::client {

class PrefetchScheduler;

struct HvacClientOptions {
  // Dataset root on the PFS (the HVAC_DATASET_DIR of the paper); only
  // paths under it are eligible for caching.
  std::string dataset_dir;
  // Endpoints in server-index order (node-major, instance-minor).
  std::vector<std::string> server_endpoints;
  core::PlacementPolicy placement = core::PlacementPolicy::kHashModulo;
  uint32_t replicas = 1;
  // Per-RPC read chunk; must be <= proto::kMaxReadChunk.
  uint32_t read_chunk_bytes = 4u << 20;
  // Segment-level caching (paper §III-E extension): files larger than
  // this are cached segment-by-segment, each segment homed
  // independently so one huge file spreads over the allocation.
  // 0 disables segmentation.
  uint64_t segment_bytes = 0;
  // Disables the direct-PFS fallback (tests use this to assert remote
  // behaviour; production keeps it on).
  bool allow_pfs_fallback = true;
  // Sequential read-ahead STARTING depth, in read-chunk units
  // (HVAC_READAHEAD). When a vfd reads sequentially, upcoming chunks
  // are requested over the async channel before the application asks,
  // overlapping network latency with compute; the per-fd depth then
  // adapts to the measured inter-arrival gap (ReadAheadPolicy). 0
  // disables (the seed behaviour: every chunk is a synchronous round
  // trip).
  uint32_t readahead_chunks = 2;
  // Clairvoyant prefetch lookahead window, in samples
  // (HVAC_PREFETCH_DEPTH): how far the plan-driven scheduler may warm
  // caches ahead of the training cursor. 0 disables the scheduler
  // (set_access_plan() still enables it on demand with the default
  // window).
  uint32_t prefetch_depth = 0;
  // Prefetch issue-rate pace in decimal MB/s (HVAC_PREFETCH_BW_MBPS);
  // 0 = unpaced.
  double prefetch_bw_mbps = 0.0;
  // Access-plan file (HVAC_PREFETCH_PLAN): one path per line, in
  // access order — absolute or dataset-relative. Loaded at client
  // construction; ignored when empty.
  std::string prefetch_plan_file;
  // TTL for the client metadata cache (HVAC_META_TTL_MS): per-epoch
  // re-opens of a file whose {size, home, cached} is still fresh skip
  // the stat/open round trip entirely. 0 disables.
  int64_t meta_ttl_ms = 3000;
  // Packed-container resolution (HVAC_PACK): when the dataset carries
  // a .hvacpack index, the client fetches it once and resolves packed
  // sample paths locally — opens and stats of packed samples cost zero
  // round trips. The fetched answer (present or absent) is re-checked
  // every PackedCatalog::kTtlMs.
  bool packed_enabled = true;
  // Checkpoint-write durability barrier (HVAC_WRITE_DURABILITY):
  // "local" (0) — fsync returns once the server's journal commit is on
  // node-local media; "pfs" (1) — fsync additionally waits until the
  // flusher landed the file on the PFS.
  uint8_t write_durability = 0;
  rpc::RpcClientOptions rpc;
};

// Bytes a passed-fd writer may add to its file between barriers. Past
// this, a write runs a kFsync itself, so the store's budget is charged
// (and an over-budget file shed to the PFS) before the file outgrows it
// by more than this. A 4 MiB shard written before its fsync never
// reaches it.
inline constexpr uint64_t kWriteFdBarrierBytes = 16ull << 20;

// Builds options from the environment (HVAC_DATASET_DIR, HVAC_SERVERS,
// HVAC_REPLICAS, HVAC_PLACEMENT) — the bootstrap path used by the
// interception shim.
Result<HvacClientOptions> options_from_env();

struct ClientStats {
  uint64_t opens = 0;
  uint64_t remote_opens = 0;
  uint64_t fallback_opens = 0;
  uint64_t reads = 0;
  uint64_t bytes_read = 0;
  uint64_t failovers = 0;  // replica failovers after a dead primary
  uint64_t readahead_issued = 0;  // chunks requested ahead of the app
  uint64_t readahead_hits = 0;    // reads served from a pending chunk
  uint64_t readahead_wasted = 0;  // pending chunks discarded unread
                                  // (non-sequential turn, close, failover)
  uint64_t meta_hits = 0;    // opens/stats answered from the meta cache
  uint64_t meta_misses = 0;  // lookups that had to pay the round trip
  uint64_t writes = 0;           // write() calls on write vfds
  uint64_t bytes_written = 0;
  uint64_t fsyncs = 0;           // durability barriers requested
  uint64_t fallback_write_opens = 0;  // write opens served by the PFS
  uint64_t passed_fd_opens = 0;  // opens answered with a cache slab
};

// JSON rendering of the shim's exit summary (HVAC_STATS_FILE): the
// per-client counters plus the process-wide buffer-pool stats.
std::string stats_to_json(const ClientStats& stats);

class HvacClient {
 public:
  explicit HvacClient(HvacClientOptions options);
  ~HvacClient();

  HvacClient(const HvacClient&) = delete;
  HvacClient& operator=(const HvacClient&) = delete;

  // POSIX-shaped API over virtual fds (>= FdTable::kVirtualFdBase).
  Result<int> open(const std::string& path);
  Result<size_t> read(int vfd, void* buf, size_t count);
  Result<size_t> pread(int vfd, void* buf, size_t count, uint64_t offset);
  Result<int64_t> lseek(int vfd, int64_t offset, int whence);
  Status close(int vfd);

  // Checkpoint write path: the file lands in the home server's
  // write-back tier (a named file on local NVMe; a home on this node
  // passes an fd on it, and writes are plain pwrites) and is copied to
  // the PFS once, after close; fsync() is the durability barrier
  // (level set by options().write_durability). A kWriteOpen that
  // cannot reach its home fails open to a direct PFS fd — a cache must
  // never kill a training run.
  Result<int> open_write(const std::string& path, bool trunc);
  Result<size_t> write(int vfd, const void* buf, size_t count);
  Result<size_t> pwrite(int vfd, const void* buf, size_t count,
                        uint64_t offset);
  Status fsync(int vfd);

  // Size without opening.
  Result<uint64_t> stat_size(const std::string& path);

  // Size of an open vfd (the shim's fstat): one fd-table read that
  // never touches the offset, so it is safe beside a concurrent read.
  Result<uint64_t> fstat_size(int vfd);

  // The access mode of an open vfd, O_RDONLY or O_WRONLY (the shim's
  // fcntl F_GETFL); kBadFd when `vfd` is not open.
  Result<int> access_mode(int vfd);

  // Warms the home server's cache (paper future work: prefetching):
  // a one-path kPrefetchBatch. kUnavailable when the mover shed it; a
  // capacity fallback still returns Ok (reads go through the PFS).
  Status prefetch(const std::string& path);

  // Pipelined warm-up: fans the prefetches out over async channels
  // (many in flight per server) instead of one round trip at a time.
  // Paths the server SHED under mover backpressure are re-paced with a
  // bounded backoff-and-retry. Returns the number of files
  // successfully cached.
  Result<size_t> prefetch_many(const std::vector<std::string>& paths);

  // One pipelined kPrefetchBatch round over the persistent async
  // channels: statuses[i] is the proto::PrefetchStatus for
  // logical_paths[i] (LOGICAL paths, dataset-relative). Transport
  // failures and open breakers read as kPrefetchShed for the affected
  // sub-batch — the caller re-paces, it never aborts.
  Result<std::vector<uint8_t>> prefetch_batch_status(
      const std::vector<std::string>& logical_paths);

  // Installs the access plan for the coming epoch (paths in access
  // order, absolute or dataset-relative; ineligible paths are
  // dropped), starting the clairvoyant scheduler on first use. The
  // scheduler warms sample caches ahead of the training cursor, which
  // advances on every intercepted open.
  void set_access_plan(const std::vector<std::string>& paths);

  // The plan-driven scheduler; null until set_access_plan() (or the
  // HVAC_PREFETCH_PLAN file) enabled it.
  PrefetchScheduler* prefetch_scheduler() {
    return prefetch_ptr_.load(std::memory_order_acquire);
  }

  // True when the path falls under dataset_dir (the shim's routing
  // test).
  bool eligible(const std::string& path) const;

  // Home server index for a path — exposed for tests and the load
  // distribution bench (Fig 15).
  uint32_t home_of(const std::string& path) const;

  ClientStats stats() const;

  const HvacClientOptions& options() const { return options_; }

 private:
  // One chunk requested ahead of the application's read position. A
  // whole issue batch rides in ONE kReadScatter call, so the chunks of
  // a batch share the response future and each remembers which extent
  // of the scatter frame is theirs.
  struct PendingChunk {
    uint64_t offset = 0;
    uint32_t count = 0;
    std::shared_future<Result<rpc::Bytes>> data;
    uint32_t extent_index = 0;
  };

  // Per-vfd sequential-pattern tracker and in-flight chunk window.
  struct ReadAheadState {
    uint64_t next_expected = 0;  // byte after the last sequential read
    uint64_t issued_end = 0;     // byte after the last issued chunk
    std::deque<PendingChunk> pending;
    ReadAheadPolicy policy;        // adaptive window depth
    uint64_t last_arrival_ns = 0;  // previous sequential arrival
  };

  // Path relative to dataset_dir — the canonical placement key.
  Result<std::string> logical_path(const std::string& path) const;

  rpc::RpcClient& channel(uint32_t server_index);

  // Async channel for read-ahead (lazily dialled, one per server).
  rpc::AsyncRpcClient& async_channel(uint32_t server_index);

  // Pops the pending chunk matching (offset, count) for `vfd`, if any.
  // A mismatch means the fd went non-sequential: the whole window is
  // discarded.
  std::optional<PendingChunk> readahead_take(int vfd, uint64_t offset,
                                             uint32_t count,
                                             uint64_t file_size);

  // Records a completed chunk read and, while the pattern stays
  // sequential, tops the in-flight window back up to readahead_chunks.
  void readahead_advance(int vfd, const core::FdEntry& entry,
                         uint64_t offset, size_t got, uint32_t chunk);

  // Drops all read-ahead state for `vfd` (close / failover).
  void readahead_drop(int vfd);

  // Clears a window, counting its in-flight chunks as wasted (caller
  // holds ra_mutex_).
  void discard_window(ReadAheadState& state);

  Result<int> open_via_pfs(const std::string& path);

  // kFsync / kWriteClose body for write handle `remote_fd`, reporting
  // `fd_bytes` pwritten through its passed fd since the last barrier.
  rpc::Bytes barrier_request(uint64_t remote_fd, uint64_t fd_bytes) const;
  // One kFsync for write vfd `vfd`. kCapacity from the server is its
  // ack for a shed handle: the fd is dropped (here and in the table),
  // and the vfd writes by kWrite from then on.
  Status barrier(int vfd, core::FdEntry& entry);
  // A write through the passed fd (see kWriteFdBarrierBytes). False
  // when a full local disk made a barrier shed the handle: nothing was
  // written, and the caller writes by kWrite.
  Result<bool> pwrite_local(int vfd, core::FdEntry& entry,
                            const uint8_t* src, size_t count,
                            uint64_t offset);

  // One stateless kOpen to `server`: a vfd whose reads go by path, with
  // the inline bytes attached for a small file, or, when `takes_fd`,
  // the cache slab a local home named, whose fd this client already
  // holds or the reply passed. A slab neither held nor passed costs one
  // more kOpen without `takes_fd`. kProtocol when the reply is
  // malformed (the caller fails over as for a dead server).
  Result<int> open_remote(const std::string& logical, uint32_t server,
                          bool takes_fd = true);

  // The slab a kOpen reply from `server` named at `ino`, holding
  // `size` bytes at `base`: `passed`, checked and taken into the
  // table, or else one the request listed in `held`. kProtocol for an
  // fd that is not that slab or a slot past its end; kNotFound when
  // the reply passed nothing and the inode is not held.
  Result<std::shared_ptr<core::SlabFd>> reply_slab(
      uint32_t server, rpc::Fd passed, uint64_t ino, uint64_t base,
      uint64_t size,
      const std::vector<std::shared_ptr<core::SlabFd>>& held);

  // `slab`, marked most recently used in `server`'s table; null when
  // the table no longer holds it.
  std::shared_ptr<core::SlabFd> held_slab(
      uint32_t server, const std::weak_ptr<core::SlabFd>& slab);

  // Meta-cache lookup with the breaker check folded in: an entry whose
  // home endpoint has an open circuit is invalidated on the spot (the
  // cached location is unusable until the breaker half-opens). Bumps
  // the per-client hit/miss stats.
  std::optional<MetaEntry> meta_lookup(const std::string& logical);

  // Packed-index resolution: non-nullopt when `logical` is a sample of
  // the dataset's packed containers (fetching the index first when
  // needed — see PackedCatalog).
  std::optional<PackedCatalog::Resolved> packed_lookup(
      const std::string& logical);

  // Segment-granular positional read (entry.segmented == true).
  Result<size_t> pread_segmented(const core::FdEntry& entry, void* buf,
                                 size_t count, uint64_t offset);

  // pread with a bounded recovery budget (recover_fd may retarget the
  // fd; after kMaxRecoveries the read fails rather than loop).
  Result<size_t> pread_attempt(int vfd, void* buf, size_t count,
                               uint64_t offset, int recoveries);

  // The serving server failed a read while `vfd` was open: retarget
  // the fd to the next healthy home, else to a direct PFS fd, keeping
  // the vfd and its offset. `force_pfs` goes straight to the PFS —
  // used when remote reads keep failing.
  Status recover_fd(int vfd, const core::FdEntry& stale,
                    bool force_pfs = false);

  HvacClientOptions options_;
  core::Placement placement_;
  core::FdTable fds_;
  MetaCache meta_;
  PackedCatalog packed_;
  std::vector<std::unique_ptr<rpc::RpcClient>> channels_;
  std::vector<std::unique_ptr<rpc::AsyncRpcClient>> async_channels_;
  std::mutex channels_mutex_;

  std::mutex ra_mutex_;
  std::unordered_map<int, ReadAheadState> ra_;

  // The slab fds held per server (DESIGN.md §20), least recently used
  // first, at most proto::kMaxHeldSlabs each.
  std::mutex slabs_mutex_;
  std::vector<std::vector<std::shared_ptr<core::SlabFd>>> slabs_;

  mutable std::mutex stats_mutex_;
  ClientStats stats_;

  // Declared last: the scheduler's issue thread calls back into the
  // channels above, so it must be torn down before they are. The raw
  // pointer is the lock-free published view (the open() hot path reads
  // it on every call); prefetch_mutex_ guards lazy creation.
  std::unique_ptr<PrefetchScheduler> prefetch_;
  std::atomic<PrefetchScheduler*> prefetch_ptr_{nullptr};
  std::mutex prefetch_mutex_;
};

}  // namespace hvac::client
