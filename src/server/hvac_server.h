// HvacServer — one HVAC server instance (paper §III-C).
//
// Ties the pieces together: an RpcServer accepts forwarded file
// operations; open requests are enqueued on the DataMover's FIFO
// queue; the CacheManager maintains the node-local store with the
// single-copy guarantee; reads are served from NVMe (or from the PFS
// when the file overflowed capacity). Several instances can run per
// node — the paper's HVAC(i×1) variants — each with its own store
// directory and endpoint.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/cache_manager.h"
#include "core/data_mover.h"
#include "core/flush_manager.h"
#include "core/metrics_frame.h"
#include "core/timeseries.h"
#include "rpc/rpc_server.h"
#include "server/hvac_proto.h"
#include "storage/packed_store.h"
#include "storage/pfs_backend.h"
#include "storage/write_journal.h"

namespace hvac::server {

struct HvacServerOptions {
  std::string bind_address = "127.0.0.1:0";
  // Directory for this instance's node-local cache (think
  // /mnt/nvme/hvac.<jobid>.<instance>).
  std::string cache_dir;
  // 0 = unlimited (datasets normally fit in aggregate NVMe).
  uint64_t cache_capacity_bytes = 0;
  // "random" (paper default), "fifo" or "lru".
  std::string eviction_policy = "random";
  size_t data_mover_threads = core::DataMover::kDefaultMovers;
  size_t rpc_handler_threads = 2;
  // Bound on queued fetches in the data-mover FIFO; beyond it opens/
  // prefetches are answered kUnavailable (backpressure) rather than
  // queueing without limit.
  size_t mover_queue_capacity = 4096;
  uint64_t seed = 0;
  // Load the dataset's packed-container index (.hvacpack/) when one
  // exists and resolve packed sample paths through it. Overridden by
  // HVAC_PACK=0. A corrupt index logs and disables packed resolution
  // rather than failing the server (the unpacked tree still serves).
  bool packed_enabled = true;
  // Checkpoint write path. The write-ahead journal lives in
  // `journal_dir` (default: HVAC_JOURNAL_DIR, else cache_dir) and is
  // replayed on start(), so a kill -9 loses nothing past the last
  // acked fsync. write_enabled = false skips journal/flusher setup
  // (read-only deployments).
  bool write_enabled = true;
  std::string journal_dir;
  // Metrics time-series collector (core/timeseries.h): snapshot cadence
  // in ms (0 = off). The default comes from HVAC_TS_INTERVAL_MS (1000);
  // a negative sentinel here means "read the env". The ring keeps
  // kTimeSeriesWindow samples.
  int ts_interval_ms = -1;
};

// Time-series ring capacity in samples: five minutes of history at the
// default 1 s cadence; the oldest delta falls off when full.
inline constexpr size_t kTimeSeriesWindow = 300;

class HvacServer {
 public:
  // `pfs` must outlive the server (several instances on one node share
  // one PFS mount, so it is borrowed, not owned).
  HvacServer(storage::PfsBackend* pfs, HvacServerOptions options);
  ~HvacServer();

  HvacServer(const HvacServer&) = delete;
  HvacServer& operator=(const HvacServer&) = delete;

  Status start();
  void stop();

  // Graceful drain (SIGTERM path): stop accepting, shed new requests,
  // wait for in-flight responses to be written. stop() still tears
  // down afterwards.
  void drain(int timeout_ms = 5000);

  // Bound endpoint (for building the client's server map).
  std::string address() const { return rpc_.endpoint().address; }

  core::CacheManager& cache() { return *cache_; }
  core::MetricsSnapshot metrics() const { return cache_->metrics(); }
  // Full observability frame for this instance: cache counters plus
  // handle-cache / buffer-pool / read-ahead sections and the per-op
  // handler latency histograms (metrics frame v2). The buffer-pool and
  // read-ahead sections are process-wide (the pool and the client
  // counters are globals), so instances in one process report the same
  // values there.
  core::MetricsFrame metrics_frame() const;
  size_t open_remote_fds() const;
  // What the last start()'s journal replay found (zeros when the
  // journal was clean or writes are disabled).
  storage::JournalReplayStats last_replay() const;
  rpc::RpcServer& rpc() { return rpc_; }
  // Non-null when the dataset carries a packed-container index.
  const storage::PackedStore* packed_store() const { return packed_.get(); }

 private:
  struct OpenFile {
    storage::PosixFile file;
    std::string logical_path;
    uint64_t size = 0;  // at open time; cached copies are immutable
    // The fd is a cache slab (or, for a packed sample, the container):
    // reads add base_offset and clamp to `size` so they can never bleed
    // into the neighbouring slot or sample.
    uint64_t base_offset = 0;
    bool pfs_fallback = false;
  };

  // One open checkpoint write handle. `mutex` serializes the
  // journal-append → store-pwrite → dirty-accounting sequence per
  // handle; distinct handles write concurrently.
  struct WriteHandle {
    std::string logical_path;
    storage::PosixFile file;      // write-back: the store's backing file
    storage::PosixFile pfs_file;  // write-through: the PFS file itself
    uint64_t size = 0;            // high-water mark for store accounting
    proto::WriteMode mode = proto::kWriteBack;
    std::mutex mutex;
  };

  void register_handlers();

  // kOpen, pooled: waits on the mover, then replies for the cached
  // copy or the PFS. Stateless requests get no remote fd and carry
  // small files inline (see proto::kOpen).
  Result<rpc::Payload> handle_open(const rpc::Bytes& req);
  // kOpen on the reactor: answers a cached copy, declines (nullopt)
  // everything that needs the mover or the PFS.
  std::optional<Result<rpc::Payload>> open_on_reactor(
      const rpc::Bytes& req);
  // The read handlers return pooled payloads (rpc::Payload): the file
  // bytes are pread straight into a BufferPool lease or sent as file
  // extents, which the RPC server writes out without staging.
  Result<rpc::Payload> handle_read(const rpc::Bytes& req);
  Result<rpc::Bytes> handle_close(const rpc::Bytes& req);
  Result<rpc::Bytes> handle_stat(const rpc::Bytes& req);
  Result<rpc::Payload> handle_read_segment(const rpc::Bytes& req);
  // Scatter read: N extents of one file in one framed reply. On the
  // cache-hit path with zero-copy enabled the extents ride as
  // FileExtents (kernel-copied at send time); otherwise they are
  // staged packed into one pooled lease behind the extent table.
  Result<rpc::Payload> handle_read_scatter(const rpc::Bytes& req);
  // Scatter on the reactor: answers a cached reply of at most
  // kMaxInlineBytes, declines the rest to handle_read_scatter.
  std::optional<Result<rpc::Payload>> read_scatter_on_reactor(
      const rpc::Bytes& req);
  Result<rpc::Bytes> handle_prefetch_batch(const rpc::Bytes& req);
  Result<rpc::Bytes> handle_metrics(const rpc::Bytes& req);
  Result<rpc::Bytes> handle_time_series(const rpc::Bytes& req);
  Result<rpc::Bytes> handle_packed_index(const rpc::Bytes& req);

  // Time-series collector thread body: one metrics_frame() snapshot
  // per interval, delta'd against the previous and pushed to the ring.
  void collector_loop();

  // Checkpoint write path (ROADMAP "write path"; paper §III-F lists
  // checkpoint writes as HVAC's other I/O class).
  Result<rpc::Bytes> handle_write_open(const rpc::Bytes& req);
  Result<rpc::Bytes> handle_write(const rpc::Bytes& req);
  Result<rpc::Bytes> handle_fsync(const rpc::Bytes& req);
  Result<rpc::Bytes> handle_write_close(const rpc::Bytes& req);

  Result<std::shared_ptr<WriteHandle>> find_write_fd(uint64_t remote_fd);
  // Shared fsync(level) semantics behind kFsync and kWriteClose.
  Status sync_handle(WriteHandle& h, uint8_t level);
  // Journal replay + dirty-path resubmission, called from start().
  Status recover_journal();
  // Flusher completion: journal kFlushed record, dirty-byte
  // accounting, checkpoint-reset when everything drained.
  void on_flushed(const std::string& logical_path);
  // Demotes a write-back handle to write-through after ENOSPC.
  Status shed_to_write_through(WriteHandle& h);

  // Packed resolution for prefetch/open/stat/read paths: when `path`
  // is a packed sample, rewrites it to the container's logical path
  // and returns the sample's (base, length); identity otherwise.
  struct PackedRoute {
    uint64_t base = 0;
    uint64_t length = 0;
    bool packed = false;
    // The routed bytes of a cached copy of `size` bytes: the whole
    // file, or the sample clamped to the container, so a read never
    // runs into a neighbouring slab slot.
    uint64_t length_in(uint64_t size) const {
      if (!packed) return size;
      return base < size ? std::min(length, size - base) : 0;
    }
  };
  PackedRoute route_packed(std::string& path) const;

  // A parsed kOpen request (hvac_proto.h). Without `stateless` it is
  // the legacy form that allocates a remote fd.
  struct OpenRequest {
    std::string path;
    bool stateless = false;
    bool takes_fd = false;
    // Inodes of the slabs the client already holds an fd on.
    std::array<uint64_t, proto::kMaxHeldSlabs> held{};
    uint8_t n_held = 0;
    bool holds(uint64_t ino) const {
      return std::find(held.begin(), held.begin() + n_held, ino) !=
             held.begin() + n_held;
    }
  };
  static Result<OpenRequest> parse_open(const rpc::Bytes& req);

  // kOpen reply for the cached copy of `open.path`, already routed
  // (kNotFound once evicted): stateless, a slab reference from
  // slab_reply() for a `takes_fd` request over a trusted local
  // connection, else the inline blob as an extent off a handle-cache
  // pin; legacy, a new remote fd.
  Result<rpc::Payload> open_cached_reply(const OpenRequest& open,
                                         const std::string& path,
                                         const PackedRoute& route);
  // Slab-reference kOpen reply (DESIGN.md §20) for the pinned entry:
  // the slot's base and its slab's inode in the body, and a fresh
  // O_RDONLY open of the slab attached to the frame unless `open`
  // lists that inode. Nullopt for a named (write-back) file, or when
  // the slab cannot be opened.
  std::optional<rpc::Payload> slab_reply(
      const OpenRequest& open, const storage::LocalStore::Pin& pin);
  // Legacy kOpen: registers `file`, whose bytes for `path` sit at
  // [base, base + size), in open_fds_ and replies with its remote fd.
  Result<rpc::Payload> open_remote_fd(storage::PosixFile file,
                                      const std::string& path,
                                      uint64_t base, uint64_t size,
                                      bool pfs_fallback);

  // A validated kReadScatter request. Fd mode resolves `open_file`;
  // path mode leaves it null and fills `path`.
  struct ScatterRequest {
    std::shared_ptr<OpenFile> open_file;
    std::string path;
    std::vector<std::pair<uint64_t, uint32_t>> want;  // (offset, len)
    uint64_t total = 0;
  };
  Result<ScatterRequest> parse_scatter(const rpc::Bytes& req);
  // Zero-copy scatter reply: the extent table in memory, every extent
  // clamped to `limit` and sent off `fd` at `base` + offset.
  rpc::Payload scatter_extent_reply(ScatterRequest& s, uint64_t base,
                                    uint64_t limit,
                                    std::shared_ptr<const void> owner,
                                    int fd);

  storage::PfsBackend* pfs_;
  HvacServerOptions options_;
  std::unique_ptr<storage::PackedStore> packed_;
  std::unique_ptr<core::CacheManager> cache_;
  std::unique_ptr<core::DataMover> mover_;
  rpc::RpcServer rpc_;

  std::mutex fds_mutex_;
  std::unordered_map<uint64_t, std::shared_ptr<OpenFile>> open_fds_;
  std::atomic<uint64_t> next_remote_fd_{1};

  // Write path. `write_state_mutex_` makes journal-append +
  // dirty-accounting atomic against the flusher's kFlushed records,
  // and gates checkpoint_reset on the dirty map being empty.
  std::unique_ptr<storage::WriteJournal> journal_;
  std::unique_ptr<core::FlushManager> flusher_;
  std::mutex write_fds_mutex_;
  std::unordered_map<uint64_t, std::shared_ptr<WriteHandle>> write_fds_;
  mutable std::mutex write_state_mutex_;
  std::unordered_map<std::string, uint64_t> dirty_bytes_by_path_;
  // Closes the copy-vs-late-write race: a write bumps its path's seq
  // *after* its pwrite (same critical section), the flusher snapshots
  // the seq before copying, and on_flushed only records kFlushed when
  // the seq is unchanged — otherwise the copy may predate the write
  // and the path is resubmitted instead of marked clean.
  std::unordered_map<std::string, uint64_t> last_write_seq_;
  std::unordered_map<std::string, uint64_t> flush_snapshot_seq_;
  uint64_t write_seq_counter_ = 0;
  storage::JournalReplayStats last_replay_;
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> write_bytes_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> write_through_sheds_{0};
  std::atomic<uint64_t> write_through_bytes_{0};

  // Per-op handler-execution latency (queueing and network excluded),
  // bumped lock-free from the handler threads.
  mutable core::OpLatencySet latency_;

  // Metrics time-series collector (tentpole layer 1). The ring always
  // exists so kTimeSeries can answer (empty when disabled); the thread
  // only runs when ts_interval_ms_ > 0.
  std::unique_ptr<core::TimeSeriesRing> ts_ring_;
  uint32_t ts_interval_ms_ = 0;
  std::thread collector_;
  std::mutex collector_mutex_;
  std::condition_variable collector_cv_;
  bool collector_stop_ = false;
};

}  // namespace hvac::server
