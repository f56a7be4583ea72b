#include "server/hvac_server.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/env.h"
#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/log.h"
#include "common/trace.h"
#include "core/trace_wire.h"
#include "rpc/health.h"
#include "rpc/wire.h"

namespace hvac::server {

using rpc::Bytes;
using rpc::WireReader;
using rpc::WireWriter;

namespace {

rpc::RpcServerOptions make_rpc_options(const HvacServerOptions& o) {
  rpc::RpcServerOptions r;
  r.bind_address = o.bind_address;
  r.handler_threads = o.rpc_handler_threads;
  return r;
}

// The kOpen reply prefix both request forms share.
WireWriter open_reply_head(uint64_t remote_fd, uint64_t size, bool cached) {
  WireWriter w;
  w.put_u64(remote_fd);
  w.put_u64(size);
  w.put_u8(cached ? proto::kFromCache : proto::kFromPfsFallback);
  return w;
}

// Bytes a stateless kOpen reply inlines for a file of `size` bytes.
uint64_t inline_length(uint64_t size) {
  return size <= proto::kMaxInlineBytes ? size : 0;
}

}  // namespace

HvacServer::HvacServer(storage::PfsBackend* pfs, HvacServerOptions options)
    : pfs_(pfs),
      options_(std::move(options)),
      rpc_(make_rpc_options(options_)) {
  if (options_.packed_enabled && env_bool_or("HVAC_PACK", true)) {
    auto packed = storage::PackedStore::load(pfs_->root());
    if (packed.ok()) {
      packed_ = std::move(packed).value();
    } else {
      // A corrupt index must not kill the server: the unpacked tree
      // (when present) still serves every sample through the regular
      // per-file path.
      HVAC_LOG_WARN("packed index disabled: "
                    << packed.error().to_string());
    }
  }
  auto store = std::make_unique<storage::LocalStore>(
      options_.cache_dir, options_.cache_capacity_bytes);
  auto eviction = core::make_eviction_policy(options_.eviction_policy,
                                             options_.seed);
  cache_ = std::make_unique<core::CacheManager>(pfs_, std::move(store),
                                                std::move(eviction));
  mover_ = std::make_unique<core::DataMover>(
      cache_.get(), options_.data_mover_threads,
      options_.mover_queue_capacity);
  if (options_.write_enabled) {
    // The flusher copies the store's physical file out to the PFS, up
    // to the path's committed size: bytes past the last barrier (a
    // passed-fd writer's, which the server never saw) stay local. The
    // seq snapshot taken before the copy lets on_flushed tell a copy
    // that includes every commit from one that a later barrier slipped
    // past (see last_write_seq_).
    flusher_ = std::make_unique<core::FlushManager>(
        core::FlushManager::Options::from_env(),
        [this](const std::string& path) -> Status {
          uint64_t committed = 0;
          {
            std::lock_guard<std::mutex> lock(write_state_mutex_);
            flush_snapshot_seq_[path] = last_write_seq_[path];
            auto dirty = dirty_bytes_by_path_.find(path);
            // Clean: the PFS already holds every committed byte.
            if (dirty == dirty_bytes_by_path_.end()) return Status::Ok();
            committed = dirty->second;
          }
          trace::Span span("server.flush_copy");
          auto copied = pfs_->copy_in(cache_->store().physical_path(path),
                                      path, committed);
          if (!copied.ok()) return copied.error();
          return Status::Ok();
        },
        [this](const std::string& path) { on_flushed(path); });
  }
  // Time-series collector cadence: options override, else env. The
  // ring exists either way so kTimeSeries always answers (empty when
  // off).
  int ts_interval = options_.ts_interval_ms;
  if (ts_interval < 0) {
    ts_interval = static_cast<int>(env_int_or("HVAC_TS_INTERVAL_MS", 1000));
  }
  ts_interval_ms_ = ts_interval > 0 ? static_cast<uint32_t>(ts_interval) : 0;
  ts_ring_ = std::make_unique<core::TimeSeriesRing>(kTimeSeriesWindow);
  register_handlers();
}

HvacServer::~HvacServer() { stop(); }

Result<HvacServer::OpenRequest> HvacServer::parse_open(const Bytes& req) {
  WireReader r(req);
  OpenRequest open;
  HVAC_ASSIGN_OR_RETURN(open.path, r.get_string());
  if (!r.exhausted()) {
    HVAC_ASSIGN_OR_RETURN(uint8_t flag, r.get_u8());
    open.stateless = flag != 0;
  }
  if (!r.exhausted()) {
    HVAC_ASSIGN_OR_RETURN(uint8_t flag, r.get_u8());
    open.takes_fd = flag != 0;
  }
  if (!r.exhausted()) {
    HVAC_ASSIGN_OR_RETURN(open.n_held, r.get_u8());
    if (open.n_held > proto::kMaxHeldSlabs) {
      return Error(ErrorCode::kInvalidArgument, "kOpen lists too many slabs");
    }
    for (uint8_t i = 0; i < open.n_held; ++i) {
      HVAC_ASSIGN_OR_RETURN(open.held[i], r.get_u64());
    }
  }
  return open;
}

Status HvacServer::start() {
  fault::init_from_env();
  if (options_.write_enabled) {
    HVAC_RETURN_IF_ERROR(recover_journal());
  }
  HVAC_RETURN_IF_ERROR(rpc_.start());
  if (ts_interval_ms_ > 0 && !collector_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(collector_mutex_);
      collector_stop_ = false;
    }
    collector_ = std::thread([this] { collector_loop(); });
  }
  return Status::Ok();
}

void HvacServer::collector_loop() {
  core::MetricsFrame prev = metrics_frame();
  uint64_t prev_ns = trace::now_ns();
  std::unique_lock<std::mutex> lock(collector_mutex_);
  while (!collector_stop_) {
    if (collector_cv_.wait_for(lock,
                               std::chrono::milliseconds(ts_interval_ms_),
                               [this] { return collector_stop_; })) {
      break;
    }
    lock.unlock();
    core::MetricsFrame cur = metrics_frame();
    const uint64_t now = trace::now_ns();
    core::TimeSeriesSample s;
    s.t_ms = now / 1000000;
    s.interval_ms = static_cast<uint32_t>((now - prev_ns) / 1000000);
    s.delta = core::frame_delta(cur, prev);
    ts_ring_->push(std::move(s));
    prev = std::move(cur);
    prev_ns = now;
    lock.lock();
  }
}

Status HvacServer::recover_journal() {
  const std::string& dir = options_.cache_dir;
  HVAC_RETURN_IF_ERROR(storage::make_directories(dir));
  char name[40];
  std::snprintf(name, sizeof(name), "hvac-%016llx.wal",
                static_cast<unsigned long long>(
                    stable_hash(options_.cache_dir)));
  HVAC_ASSIGN_OR_RETURN(journal_, storage::WriteJournal::open(
                                      path_join(dir, name)));
  HVAC_ASSIGN_OR_RETURN(last_replay_, journal_->replay());

  // Every path the PFS does not hold at its last committed size: trim
  // the named file back to that size, so bytes written after the last
  // acked barrier are never presented as committed, account it, and
  // queue its PFS copy. A file shorter than its record was cut by a
  // later truncating open whose record did not survive; it is never
  // padded. A file over the store budget is kept and logged: it holds
  // acked bytes, and the flusher drains it right after.
  for (const auto& [path, committed] : last_replay_.dirty) {
    Result<storage::PosixFile> f =
        storage::PosixFile::open_rw(cache_->store().physical_path(path));
    Result<uint64_t> on_disk = f.ok() ? f->size() : Result<uint64_t>(f.error());
    if (!on_disk.ok()) {
      HVAC_LOG_WARN("replay: no named file for " << path << " ("
                                                 << on_disk.error().to_string()
                                                 << "), its bytes are lost");
      continue;
    }
    const uint64_t size = std::min(*on_disk, committed);
    if (*on_disk > committed) {
      HVAC_RETURN_IF_ERROR(f->truncate(committed));
      HVAC_RETURN_IF_ERROR(f->datasync());
    }
    Status s = cache_->store().update_size(path, size);
    if (!s.ok() && s.error().code != ErrorCode::kCapacity) return s;
    if (!s.ok()) {
      HVAC_LOG_WARN("replay over budget for " << path
                                              << " (keeping the bytes)");
    }
    {
      std::lock_guard<std::mutex> lock(write_state_mutex_);
      last_write_seq_[path] = ++write_seq_counter_;
      dirty_bytes_by_path_[path] = size;
    }
    replay_requeued_bytes_ += size;
    s = flusher_->submit(path);
    if (!s.ok()) {
      HVAC_LOG_WARN("replay resubmit failed for " << path << ": "
                                                  << s.error().to_string());
    }
  }
  if (!last_replay_.dirty.empty() || last_replay_.truncated_bytes > 0) {
    HVAC_LOG_INFO("journal replay: " << last_replay_.dirty.size()
                                     << " dirty files ("
                                     << replay_requeued_bytes_
                                     << " committed bytes), "
                                     << last_replay_.truncated_bytes
                                     << " torn bytes cut");
  }
  return Status::Ok();
}

void HvacServer::drain(int timeout_ms) { rpc_.drain(timeout_ms); }

void HvacServer::stop() {
  {
    std::lock_guard<std::mutex> lock(collector_mutex_);
    collector_stop_ = true;
  }
  collector_cv_.notify_all();
  if (collector_.joinable()) collector_.join();
  rpc_.stop();
  // Give dirty checkpoints a bounded chance to reach the PFS: a file
  // is copied at its close, so one whose handle was never closed is
  // queued here, at its last committed size (what it holds past its
  // last barrier was never acked). What does not drain stays in the
  // journal and in the named files, which the purge below then keeps
  // for the next start's replay.
  bool drained = true;
  if (flusher_) {
    std::vector<std::string> dirty;
    {
      std::lock_guard<std::mutex> lock(write_state_mutex_);
      for (const auto& entry : dirty_bytes_by_path_) {
        dirty.push_back(entry.first);
      }
    }
    for (const std::string& path : dirty) (void)flusher_->submit(path);
    drained = flusher_->drain(5000).ok();
    if (!drained) {
      HVAC_LOG_WARN("flush drain timed out; journal covers the rest");
    }
    flusher_->shutdown();
  }
  if (mover_) mover_->shutdown();
  {
    std::lock_guard<std::mutex> lock(fds_mutex_);
    open_fds_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(write_fds_mutex_);
    write_fds_.clear();
  }
  bool dirty_left = false;
  if (journal_) {
    std::lock_guard<std::mutex> lock(write_state_mutex_);
    dirty_left = !dirty_bytes_by_path_.empty();
    if (drained && !dirty_left) {
      // Clean stop: every acked byte is on the PFS, so the journal has
      // no obligations left — remove the file outright (the purge
      // below leaves the cache dir empty, journal included). A dirty
      // or undrained stop keeps it for the next start's replay.
      const std::string journal_path = journal_->path();
      journal_.reset();
      Status s = storage::remove_file(journal_path);
      if (!s.ok()) {
        HVAC_LOG_WARN("journal remove failed: " << s.error().to_string());
      }
    }
  }
  // Cache lifetime is coupled to the server (job) lifetime: purge the
  // node-local store on teardown (paper §III-D) — unless dirty
  // write-back data failed to drain. The named files hold those
  // bytes and the journal only their sizes, so the next start's
  // replay needs them.
  if (cache_) {
    if (drained && !dirty_left) {
      cache_->purge();
    } else {
      HVAC_LOG_WARN("keeping local store for journal replay ("
                    << (drained ? "dirty paths remain" : "drain timed out")
                    << ")");
    }
  }
}

size_t HvacServer::open_remote_fds() const {
  std::lock_guard<std::mutex> lock(
      const_cast<std::mutex&>(fds_mutex_));
  return open_fds_.size();
}

void HvacServer::register_handlers() {
  // Every handler runs under a ScopedLatencyTimer so the metrics frame
  // can report per-op p50/p99; the timer covers handler execution on
  // the pool thread (queueing and socket time excluded).
  // Ping, cached reads and close are hit-path fast (no mover, no PFS
  // round trip in the common case): run them inline on the owning
  // reactor thread, skipping the pool queue/wake entirely. Everything
  // mover- or PFS-bound stays pooled so a slow fetch cannot stall a
  // reactor's other connections.
  rpc_.register_handler(proto::kPing, [this](const Bytes&) -> Result<Bytes> {
    core::ScopedLatencyTimer t(latency_, proto::kPing);
    return Bytes{};
  }, rpc::DispatchHint::kInline);
  // kOpen and kReadScatter answer cached copies on the reactor and
  // re-queue whatever needs the mover or the PFS on the pool. A
  // declined probe records no latency: its pooled run does, so each
  // request is timed once.
  rpc_.register_payload_handler(
      proto::kOpen,
      [this](const Bytes& req) {
        core::ScopedLatencyTimer t(latency_, proto::kOpen);
        return handle_open(req);
      },
      [this](const Bytes& req) {
        core::ScopedLatencyTimer t(latency_, proto::kOpen);
        auto answer = open_on_reactor(req);
        if (!answer.has_value()) t.dismiss();
        return answer;
      });
  rpc_.register_payload_handler(proto::kRead, [this](const Bytes& req) {
    core::ScopedLatencyTimer t(latency_, proto::kRead);
    return handle_read(req);
  }, rpc::DispatchHint::kInline);
  rpc_.register_handler(proto::kClose, [this](const Bytes& req) {
    core::ScopedLatencyTimer t(latency_, proto::kClose);
    return handle_close(req);
  }, rpc::DispatchHint::kInline);
  rpc_.register_handler(proto::kStat, [this](const Bytes& req) {
    core::ScopedLatencyTimer t(latency_, proto::kStat);
    return handle_stat(req);
  });
  rpc_.register_handler(proto::kMetrics, [this](const Bytes& req) {
    core::ScopedLatencyTimer t(latency_, proto::kMetrics);
    return handle_metrics(req);
  });
  rpc_.register_handler(proto::kTimeSeries, [this](const Bytes& req) {
    core::ScopedLatencyTimer t(latency_, proto::kTimeSeries);
    return handle_time_series(req);
  });
  rpc_.register_payload_handler(proto::kReadSegment,
                                [this](const Bytes& req) {
    core::ScopedLatencyTimer t(latency_, proto::kReadSegment);
    return handle_read_segment(req);
  });
  rpc_.register_payload_handler(
      proto::kReadScatter,
      [this](const Bytes& req) {
        core::ScopedLatencyTimer t(latency_, proto::kReadScatter);
        return handle_read_scatter(req);
      },
      [this](const Bytes& req) {
        core::ScopedLatencyTimer t(latency_, proto::kReadScatter);
        auto answer = read_scatter_on_reactor(req);
        if (!answer.has_value()) t.dismiss();
        return answer;
      });
  rpc_.register_handler(proto::kPrefetchBatch, [this](const Bytes& req) {
    core::ScopedLatencyTimer t(latency_, proto::kPrefetchBatch);
    return handle_prefetch_batch(req);
  });
  rpc_.register_handler(proto::kTraceDump,
                        [this](const Bytes&) -> Result<Bytes> {
    core::ScopedLatencyTimer t(latency_, proto::kTraceDump);
    // Rings are process-wide: any instance's dump carries every span
    // this process emitted (client-side included when co-located).
    return core::encode_spans(trace::drain());
  });
  // Served from memory (the index was loaded at start): inline.
  rpc_.register_handler(proto::kPackedIndex, [this](const Bytes& req) {
    core::ScopedLatencyTimer t(latency_, proto::kPackedIndex);
    return handle_packed_index(req);
  }, rpc::DispatchHint::kInline);
  // Write path: every op can touch a fdatasync, a prefill from the
  // PFS or a flusher wait, so all four stay pooled.
  rpc_.register_payload_handler(proto::kWriteOpen, [this](const Bytes& req) {
    core::ScopedLatencyTimer t(latency_, proto::kWriteOpen);
    return handle_write_open(req);
  });
  rpc_.register_handler(proto::kWrite, [this](const Bytes& req) {
    core::ScopedLatencyTimer t(latency_, proto::kWrite);
    return handle_write(req);
  });
  rpc_.register_handler(proto::kFsync, [this](const Bytes& req) {
    core::ScopedLatencyTimer t(latency_, proto::kFsync);
    return handle_fsync(req);
  });
  rpc_.register_handler(proto::kWriteClose, [this](const Bytes& req) {
    core::ScopedLatencyTimer t(latency_, proto::kWriteClose);
    return handle_write_close(req);
  });
}

HvacServer::PackedRoute HvacServer::route_packed(std::string& path) const {
  PackedRoute route;
  if (!packed_) return route;
  auto resolved = packed_->resolve(path);
  if (!resolved.has_value()) return route;
  path = std::move(resolved->container_logical);
  route.base = resolved->base;
  route.length = resolved->length;
  route.packed = true;
  return route;
}

Result<Bytes> HvacServer::handle_packed_index(const Bytes&) {
  WireWriter w;
  if (!packed_) {
    w.put_u8(0);
    return std::move(w).take();
  }
  w.put_u8(1);
  const std::vector<uint8_t>& raw = packed_->raw_index();
  w.put_blob(raw.data(), raw.size());
  return std::move(w).take();
}

Result<rpc::Payload> HvacServer::handle_read_segment(const Bytes& req) {
  WireReader r(req);
  HVAC_ASSIGN_OR_RETURN(std::string path, r.get_string());
  HVAC_ASSIGN_OR_RETURN(uint64_t seg_index, r.get_u64());
  HVAC_ASSIGN_OR_RETURN(uint64_t segment_bytes, r.get_u64());
  HVAC_ASSIGN_OR_RETURN(uint64_t offset_in_segment, r.get_u64());
  HVAC_ASSIGN_OR_RETURN(uint32_t count, r.get_u32());
  if (count > proto::kMaxReadChunk || segment_bytes == 0) {
    return Error(ErrorCode::kInvalidArgument, "bad segment read");
  }
  // pread lands directly in a pooled payload buffer, after the blob
  // length prefix; no copy between the file and the socket.
  hvac::BufferPool::Lease lease =
      hvac::BufferPool::global().acquire(rpc::kBlobPrefix + count);
  HVAC_ASSIGN_OR_RETURN(
      size_t n, cache_->pread_segment(path, seg_index, segment_bytes,
                                      lease.data() + rpc::kBlobPrefix,
                                      count, offset_in_segment));
  return rpc::blob_payload(std::move(lease), n);
}

std::optional<Result<rpc::Payload>> HvacServer::open_on_reactor(
    const Bytes& req) {
  Result<OpenRequest> open = parse_open(req);
  if (!open.ok()) return Result<rpc::Payload>(open.error());
  std::string path = open->path;
  const PackedRoute route = route_packed(path);
  // Any failure here (not cached: the mover decides; an injected store
  // fault) is for the pooled run to retry or report.
  Result<rpc::Payload> reply = open_cached_reply(*open, path, route);
  if (!reply.ok()) return std::nullopt;
  // The hit and eviction touch the mover's ensure_cached records on
  // the pooled path, so hit counts do not depend on where kOpen ran.
  (void)cache_->touch_if_cached(path);
  return reply;
}

Result<rpc::Payload> HvacServer::handle_open(const Bytes& req) {
  HVAC_ASSIGN_OR_RETURN(OpenRequest open, parse_open(req));
  std::string path = open.path;
  // Packed sample: the reply is for the *container* (fetched and cached
  // once for all its samples) with the sample's base/length applied;
  // the reported size is the sample's, not the blob's.
  const PackedRoute route = route_packed(path);

  // Forward to the data-mover FIFO (paper §III-D steps 4-6) and wait
  // for the cache decision. Retry if the fresh copy is evicted before
  // we open it (possible under heavy capacity pressure); fall back to
  // the PFS otherwise.
  for (int attempt = 0; attempt < 3; ++attempt) {
    HVAC_ASSIGN_OR_RETURN(bool cached, mover_->fetch(path));
    if (!cached) break;  // capacity overflow: serve from the PFS
    Result<rpc::Payload> reply = open_cached_reply(open, path, route);
    if (reply.ok() || reply.error().code != ErrorCode::kNotFound) {
      return reply;
    }
  }
  HVAC_ASSIGN_OR_RETURN(storage::PosixFile file, pfs_->open(path));
  uint64_t size = route.length;
  if (!route.packed) {
    HVAC_ASSIGN_OR_RETURN(size, file.size());
  }
  if (!open.stateless) {
    return open_remote_fd(std::move(file), path, route.base, size,
                          /*pfs=*/true);
  }
  std::vector<uint8_t> bytes(inline_length(size));
  size_t got = 0;
  while (got < bytes.size()) {
    HVAC_ASSIGN_OR_RETURN(size_t n,
                          pfs_->pread(file, bytes.data() + got,
                                      bytes.size() - got, route.base + got));
    if (n == 0) {
      return Error(ErrorCode::kIoError, "PFS file shrank under open: " + path);
    }
    got += n;
  }
  cache_->record_served_bytes(got, false);
  WireWriter w = open_reply_head(0, size, /*cached=*/false);
  w.put_blob(bytes.data(), bytes.size());
  return rpc::Payload(std::move(w).take());
}

Result<rpc::Payload> HvacServer::open_cached_reply(const OpenRequest& open,
                                                   const std::string& path,
                                                   const PackedRoute& route) {
  if (!open.stateless) {
    HVAC_ASSIGN_OR_RETURN(storage::LocalStore::Opened opened,
                          cache_->store().open(path));
    return open_remote_fd(std::move(opened.file), path,
                          opened.base + route.base,
                          route.length_in(opened.size), /*pfs=*/false);
  }
  HVAC_ASSIGN_OR_RETURN(storage::LocalStore::Pin pin,
                        cache_->store().open_pinned(path));
  if (open.takes_fd && !route.packed && rpc::peer_takes_fds()) {
    if (std::optional<rpc::Payload> reply = slab_reply(open, pin)) {
      return std::move(*reply);
    }
  }
  // The inline bytes go out like a kRead hit: a sendfile extent off
  // the pinned slab, which the pin keeps open until they are sent.
  const uint64_t size = route.length_in(pin.size());
  const uint64_t inline_len = inline_length(size);
  WireWriter w = open_reply_head(0, size, /*cached=*/true);
  w.put_u32(static_cast<uint32_t>(inline_len));
  rpc::Payload reply(std::move(w).take());
  if (inline_len > 0) {
    reply.add_extent(rpc::FileExtent{pin.owner(), pin.file().fd(),
                                     pin.base() + route.base, inline_len});
    cache_->record_served_bytes(inline_len, true);
  }
  return reply;
}

std::optional<rpc::Payload> HvacServer::slab_reply(
    const OpenRequest& open, const storage::LocalStore::Pin& pin) {
  const uint64_t ino = pin.slab_ino();
  if (ino == 0) return std::nullopt;  // a named file grows in place
  rpc::Fd fd;
  if (!open.holds(ino)) {
    // Never the slab's own fd, which is O_RDWR: a fresh read-only
    // open, closed here once the frame is sent.
    Result<storage::PosixFile> slab = pin.open_slab_read();
    if (!slab.ok() || !slab->valid()) return std::nullopt;
    fd = rpc::Fd(slab->release());
  }
  WireWriter w = open_reply_head(0, pin.size(), /*cached=*/true);
  w.put_u32(0);  // no inline bytes
  w.put_u64(pin.base());
  w.put_u64(ino);
  rpc::Payload reply(std::move(w).take());
  auto& zc = rpc::ZeroCopyCounters::global();
  if (fd.valid()) {
    reply.set_fd(std::move(fd));
    zc.fd_passes.fetch_add(1, std::memory_order_relaxed);
  }
  zc.fd_pass_bytes.fetch_add(pin.size(), std::memory_order_relaxed);
  return reply;
}

Result<rpc::Payload> HvacServer::open_remote_fd(storage::PosixFile file,
                                                const std::string& path,
                                                uint64_t base, uint64_t size,
                                                bool pfs_fallback) {
  auto open_file = std::make_shared<OpenFile>();
  open_file->file = std::move(file);
  open_file->logical_path = path;
  open_file->pfs_fallback = pfs_fallback;
  open_file->base_offset = base;
  open_file->size = size;
  const uint64_t remote_fd =
      next_remote_fd_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(fds_mutex_);
    open_fds_[remote_fd] = open_file;
  }
  return rpc::Payload(
      open_reply_head(remote_fd, open_file->size, !pfs_fallback).take());
}

Result<rpc::Payload> HvacServer::handle_read(const Bytes& req) {
  WireReader r(req);
  HVAC_ASSIGN_OR_RETURN(uint64_t remote_fd, r.get_u64());
  HVAC_ASSIGN_OR_RETURN(uint64_t offset, r.get_u64());
  HVAC_ASSIGN_OR_RETURN(uint32_t count, r.get_u32());
  if (count > proto::kMaxReadChunk) {
    return Error(ErrorCode::kInvalidArgument, "read chunk too large");
  }

  std::shared_ptr<OpenFile> open_file;
  {
    std::lock_guard<std::mutex> lock(fds_mutex_);
    auto it = open_fds_.find(remote_fd);
    if (it == open_fds_.end()) {
      return Error(ErrorCode::kBadFd,
                   "unknown remote fd " + std::to_string(remote_fd));
    }
    open_file = it->second;
  }

  // Clamp to the open-time size: for a packed sample the fd is the
  // container, so reading past `size` would bleed into the next sample
  // instead of hitting EOF.
  const uint64_t avail =
      offset < open_file->size ? open_file->size - offset : 0;
  count = static_cast<uint32_t>(std::min<uint64_t>(count, avail));

  // Cache hit: hand the RPC server a FileExtent — it sendfiles the
  // bytes from the cached fd straight to the socket. The OpenFile
  // shared_ptr rides along as the keepalive, so a concurrent kClose
  // cannot close the fd mid-send.
  if (!open_file->pfs_fallback) {
    cache_->record_served_bytes(count, true);
    rpc::FileExtent extent;
    extent.owner = open_file;
    extent.fd = open_file->file.fd();
    extent.offset = open_file->base_offset + offset;
    extent.length = count;
    return rpc::blob_extent_payload(std::move(extent));
  }

  // PFS fallback: stage the bytes through the buffer pool.
  hvac::BufferPool::Lease lease =
      hvac::BufferPool::global().acquire(rpc::kBlobPrefix + count);
  HVAC_ASSIGN_OR_RETURN(
      size_t n, pfs_->pread(open_file->file, lease.data() + rpc::kBlobPrefix,
                            count, open_file->base_offset + offset));
  cache_->record_served_bytes(n, false);
  return rpc::blob_payload(std::move(lease), n);
}

Result<HvacServer::ScatterRequest> HvacServer::parse_scatter(
    const Bytes& req) {
  WireReader r(req);
  ScatterRequest s;
  HVAC_ASSIGN_OR_RETURN(uint8_t mode, r.get_u8());
  if (mode == 0) {
    HVAC_ASSIGN_OR_RETURN(uint64_t remote_fd, r.get_u64());
    std::lock_guard<std::mutex> lock(fds_mutex_);
    auto it = open_fds_.find(remote_fd);
    if (it == open_fds_.end()) {
      return Error(ErrorCode::kBadFd,
                   "unknown remote fd " + std::to_string(remote_fd));
    }
    s.open_file = it->second;
  } else if (mode == 1) {
    HVAC_ASSIGN_OR_RETURN(s.path, r.get_string());
  } else {
    return Error(ErrorCode::kInvalidArgument, "bad scatter mode");
  }
  HVAC_ASSIGN_OR_RETURN(uint32_t n, r.get_u32());
  if (n == 0 || n > proto::kMaxScatterExtents) {
    return Error(ErrorCode::kInvalidArgument, "bad scatter extent count");
  }
  s.want.resize(n);
  for (auto& [off, len] : s.want) {
    HVAC_ASSIGN_OR_RETURN(off, r.get_u64());
    HVAC_ASSIGN_OR_RETURN(len, r.get_u32());
    if (len > proto::kMaxReadChunk) {
      return Error(ErrorCode::kInvalidArgument, "scatter extent too large");
    }
    s.total += len;
  }
  if (s.total > proto::kMaxScatterBytes) {
    return Error(ErrorCode::kInvalidArgument, "scatter request too large");
  }
  return s;
}

rpc::Payload HvacServer::scatter_extent_reply(ScatterRequest& s,
                                              uint64_t base, uint64_t limit,
                                              std::shared_ptr<const void> owner,
                                              int fd) {
  WireWriter table;
  table.put_u32(static_cast<uint32_t>(s.want.size()));
  uint64_t total_act = 0;
  for (auto& [off, len] : s.want) {
    const uint64_t avail = off < limit ? limit - off : 0;
    len = static_cast<uint32_t>(std::min<uint64_t>(len, avail));
    table.put_u64(off);
    table.put_u32(len);
    total_act += len;
  }
  rpc::Payload p(std::move(table).take());
  for (const auto& [off, len] : s.want) {
    if (len == 0) continue;
    p.add_extent(rpc::FileExtent{owner, fd, base + off, len});
  }
  cache_->record_served_bytes(total_act, true);
  return p;
}

std::optional<Result<rpc::Payload>> HvacServer::read_scatter_on_reactor(
    const Bytes& req) {
  Result<ScatterRequest> parsed = parse_scatter(req);
  if (!parsed.ok()) return Result<rpc::Payload>(parsed.error());
  ScatterRequest& s = *parsed;
  // Only small replies run here: a bulk read-ahead batch would hold
  // the reactor's other connections for its whole send.
  if (s.total > proto::kMaxInlineBytes) return std::nullopt;
  if (s.open_file != nullptr) {
    const std::shared_ptr<OpenFile>& f = s.open_file;
    if (f->pfs_fallback) return std::nullopt;  // PFS pread: pooled
    return scatter_extent_reply(s, f->base_offset, f->size, f,
                                f->file.fd());
  }
  std::string path = s.path;
  const PackedRoute route = route_packed(path);
  // A packed read counts the container hit its pooled run would (the
  // mover's fetch); a plain path-mode read counts none either way.
  if (route.packed && !cache_->touch_if_cached(path)) return std::nullopt;
  auto pin = cache_->store().open_pinned(path);
  if (!pin.ok()) return std::nullopt;
  return scatter_extent_reply(s, pin->base() + route.base,
                              route.length_in(pin->size()), pin->owner(),
                              pin->file().fd());
}

Result<rpc::Payload> HvacServer::handle_read_scatter(const Bytes& req) {
  HVAC_ASSIGN_OR_RETURN(ScatterRequest s, parse_scatter(req));
  const std::shared_ptr<OpenFile>& open_file = s.open_file;
  std::string& path = s.path;
  auto& want = s.want;
  const uint32_t n = static_cast<uint32_t>(want.size());

  // A cached fd answers with extents the RPC server sendfiles. In path
  // mode the file may have been evicted since the client's metadata
  // said "cached" — then every extent degrades to pread_through, which
  // re-fetches or reads the PFS (and does its own byte accounting).
  //
  // Packed samples arrive in path mode (the client resolved the sample
  // from the fetched index and skipped kOpen entirely): rewrite to the
  // container's logical path, warm the container once through the
  // mover, and translate every extent by the sample's base offset while
  // clamping to the sample length. The reply table always echoes the
  // *requested* sample-relative offsets.
  uint64_t base = 0;
  uint64_t limit = 0;     // clamp bound: sample length or file size
  bool has_limit = false;
  if (open_file != nullptr) {
    path = open_file->logical_path;
    base = open_file->base_offset;
    limit = open_file->size;
    has_limit = true;
    if (!open_file->pfs_fallback) {
      return scatter_extent_reply(s, base, limit, open_file,
                                  open_file->file.fd());
    }
  } else {
    const PackedRoute route = route_packed(path);
    base = route.base;
    if (route.packed) {
      limit = route.length;
      has_limit = true;
      // One blocking fetch caches the whole container; this handler
      // runs pooled, so the mover wait cannot stall a reactor.
      (void)mover_->fetch(path);
    }
    auto pin = cache_->store().open_pinned(path);
    if (pin.ok()) {
      // A pin reads relative to its entry; the raw fd needs its slot
      // base.
      return scatter_extent_reply(s, pin->base() + base,
                                  route.length_in(pin->size()), pin->owner(),
                                  pin->file().fd());
    }
  }

  // No cached fd (a PFS-fallback remote fd, or an uncached path):
  // stage the extents packed behind the table in one lease. Actual
  // lengths (EOF clamps) are only known after the preads, so the table
  // is stamped last.
  const size_t table_size = rpc::scatter_table_size(n);
  hvac::BufferPool::Lease lease =
      hvac::BufferPool::global().acquire(table_size + s.total);
  uint8_t* data = lease.data() + table_size;
  size_t cursor = 0;
  std::vector<uint32_t> actual(n);
  for (uint32_t i = 0; i < n; ++i) {
    const auto [off, len] = want[i];
    // Clamp to the sample/file bound whenever one is known — a packed
    // sample's fd is the container, so an unclamped read would bleed
    // into the neighbouring sample instead of hitting EOF.
    uint32_t clamped = len;
    if (has_limit) {
      const uint64_t avail = off < limit ? limit - off : 0;
      clamped = static_cast<uint32_t>(std::min<uint64_t>(len, avail));
    }
    size_t got = 0;
    if (open_file != nullptr) {
      // PFS-fallback remote fd: read through the borrowed PFS handle.
      HVAC_ASSIGN_OR_RETURN(
          got, pfs_->pread(open_file->file, data + cursor, clamped,
                           base + off));
      cache_->record_served_bytes(got, false);
    } else {
      HVAC_ASSIGN_OR_RETURN(
          got,
          cache_->pread_through(path, data + cursor, clamped, base + off));
    }
    actual[i] = static_cast<uint32_t>(got);
    cursor += got;
  }
  WireWriter table;
  table.put_u32(n);
  for (uint32_t i = 0; i < n; ++i) {
    table.put_u64(want[i].first);
    table.put_u32(actual[i]);
  }
  std::memcpy(lease.data(), table.bytes().data(), table_size);
  lease.resize(table_size + cursor);
  return rpc::Payload(std::move(lease));
}

Result<Bytes> HvacServer::handle_close(const Bytes& req) {
  WireReader r(req);
  HVAC_ASSIGN_OR_RETURN(uint64_t remote_fd, r.get_u64());
  std::lock_guard<std::mutex> lock(fds_mutex_);
  if (open_fds_.erase(remote_fd) == 0) {
    return Error(ErrorCode::kBadFd,
                 "unknown remote fd " + std::to_string(remote_fd));
  }
  return Bytes{};
}

Result<Bytes> HvacServer::handle_stat(const Bytes& req) {
  WireReader r(req);
  HVAC_ASSIGN_OR_RETURN(std::string path, r.get_string());
  // Packed sample: the size comes from the index; "cached" means the
  // container blob is resident.
  const PackedRoute route = route_packed(path);
  if (route.packed) {
    WireWriter w;
    w.put_u64(route.length);
    w.put_u8(cache_->is_cached(path) ? 1 : 0);
    return std::move(w).take();
  }
  uint64_t size = 0;
  Result<uint64_t> cached_size = cache_->store().cached_size(path);
  const bool cached = cached_size.ok();
  if (cached) {
    size = *cached_size;
  } else {
    HVAC_ASSIGN_OR_RETURN(size, pfs_->size_of(path));
  }
  WireWriter w;
  w.put_u64(size);
  // Trailing cached flag (added for the client metadata cache). Old
  // clients read the u64 and stop; new clients treat a missing flag as
  // not-cached.
  w.put_u8(cached ? 1 : 0);
  return std::move(w).take();
}

Result<Bytes> HvacServer::handle_prefetch_batch(const Bytes& req) {
  WireReader r(req);
  HVAC_ASSIGN_OR_RETURN(uint32_t n, r.get_u32());
  if (n == 0 || n > proto::kMaxPrefetchBatch) {
    return Error(ErrorCode::kInvalidArgument, "bad prefetch batch size");
  }
  // Submit every path up front, then wait: the mover threads overlap
  // the fetches instead of this handler serializing them one blocking
  // fetch at a time. submit() coalesces duplicates onto one in-flight
  // fetch and — because the queue is bounded — answers kUnavailable
  // immediately when it is full, which becomes a per-path SHED status
  // rather than a flood of queued tasks. A single failed fetch must
  // not fail the batch: the path reports miss/shed and the rest keep
  // warming.
  std::vector<std::shared_future<Result<bool>>> futures;
  futures.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    HVAC_ASSIGN_OR_RETURN(std::string path, r.get_string());
    (void)route_packed(path);
    futures.push_back(mover_->submit(std::move(path)));
  }
  WireWriter w;
  w.put_u32(n);
  for (auto& fut : futures) {
    const Result<bool>& cached = fut.get();
    uint8_t status = proto::kPrefetchMiss;
    if (cached.ok()) {
      status = *cached ? proto::kPrefetchCached : proto::kPrefetchMiss;
    } else if (cached.error().code == ErrorCode::kUnavailable) {
      status = proto::kPrefetchShed;
    }
    w.put_u8(status);
  }
  return std::move(w).take();
}

Result<std::shared_ptr<HvacServer::WriteHandle>> HvacServer::find_write_fd(
    uint64_t remote_fd) {
  std::lock_guard<std::mutex> lock(write_fds_mutex_);
  auto it = write_fds_.find(remote_fd);
  if (it == write_fds_.end()) {
    return Error(ErrorCode::kBadFd,
                 "unknown write fd " + std::to_string(remote_fd));
  }
  return it->second;
}

Result<rpc::Payload> HvacServer::handle_write_open(const Bytes& req) {
  if (!journal_) {
    return Error(ErrorCode::kUnavailable, "write path disabled");
  }
  WireReader r(req);
  HVAC_ASSIGN_OR_RETURN(std::string path, r.get_string());
  HVAC_ASSIGN_OR_RETURN(uint8_t trunc, r.get_u8());
  uint8_t takes_fd = 0;
  if (!r.exhausted()) {
    HVAC_ASSIGN_OR_RETURN(takes_fd, r.get_u8());
  }

  auto h = std::make_shared<WriteHandle>();
  h->logical_path = path;
  // A non-truncating open of a path the store does not hold yet must
  // prefill the local copy from the PFS: the flusher later replaces
  // the whole PFS file with the local file, so starting from an empty
  // backing file would turn a partial overwrite into data loss. The
  // prefill copies straight into the named file; a file that does not
  // exist anywhere starts empty (this open is O_CREAT on the shim
  // side), and one too big for the NVMe budget gets kCapacity, which
  // writes through to the PFS (which keeps its own content, so
  // non-truncating semantics hold).
  auto open_backing = [&]() -> Result<storage::PosixFile> {
    if (trunc) {
      return cache_->store().open_write(path, /*keep_contents=*/false);
    }
    return cache_->store().open_write(
        path, /*keep_contents=*/true,
        [&](storage::PosixFile& out) { return cache_->prefill(path, out); });
  };
  auto f = open_backing();
  rpc::Fd passed;
  if (f.ok()) {
    h->file = std::move(f).value();
    h->mode = proto::kWriteBack;
    if (trunc) {
      // open_write() emptied the file and its entry. The emptying is
      // the next barrier's to commit, and the file's one PFS copy is
      // made at close. The record keeps a replay from trimming what
      // this writer puts in the file back to an older committed size.
      std::lock_guard<std::mutex> lock(write_state_mutex_);
      HVAC_RETURN_IF_ERROR(journal_->append_truncate(path));
      last_write_seq_[path] = ++write_seq_counter_;
      h->unsynced = true;
    } else {
      HVAC_ASSIGN_OR_RETURN(h->size, h->file.size());
    }
    if (takes_fd != 0 && rpc::peer_takes_fds()) {
      // Never the server's own O_RDWR fd: a fresh write-only open,
      // closed here once the frame is sent.
      HVAC_ASSIGN_OR_RETURN(
          storage::PosixFile wronly,
          storage::PosixFile::open_write_only(
              cache_->store().physical_path(path)));
      passed = rpc::Fd(wronly.release());
    }
  } else if (f.error().code == ErrorCode::kCapacity) {
    // Local NVMe full before the first byte: write through to the PFS
    // for this handle's whole lifetime. Deliberately not a breaker
    // event — the PFS is healthy, the local disk is just full.
    write_through_sheds_.fetch_add(1, std::memory_order_relaxed);
    HVAC_ASSIGN_OR_RETURN(h->pfs_file, pfs_->open_write(path, trunc != 0));
    h->mode = proto::kWriteThrough;
  } else {
    return f.error();
  }

  const uint64_t remote_fd =
      next_remote_fd_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(write_fds_mutex_);
    write_fds_[remote_fd] = h;
  }
  WireWriter w;
  w.put_u64(remote_fd);
  w.put_u8(static_cast<uint8_t>(h->mode));
  rpc::Payload reply(std::move(w).take());
  if (passed.valid()) {
    reply.set_fd(std::move(passed));
    rpc::ZeroCopyCounters::global().fd_passes.fetch_add(
        1, std::memory_order_relaxed);
  }
  return reply;
}

Status HvacServer::shed_to_write_through(WriteHandle& h) {
  write_through_sheds_.fetch_add(1, std::memory_order_relaxed);
  // Land the whole locally written prefix on the PFS first: the kWrites
  // acked so far, or the bytes the shedding barrier is about to ack.
  // Then drop the local copy, which would go stale, and continue on the
  // (renamed-into-place) PFS file.
  HVAC_ASSIGN_OR_RETURN(uint64_t size, h.file.size());
  {
    std::lock_guard<std::mutex> lock(write_state_mutex_);
    dirty_bytes_by_path_[h.logical_path] = size;
  }
  HVAC_RETURN_IF_ERROR(flusher_->submit(h.logical_path));
  HVAC_RETURN_IF_ERROR(flusher_->wait(h.logical_path));
  (void)cache_->store().evict(h.logical_path);
  HVAC_ASSIGN_OR_RETURN(h.pfs_file, pfs_->open_write(h.logical_path, false));
  h.file = storage::PosixFile();
  h.mode = proto::kWriteThrough;
  return Status::Ok();
}

Result<Bytes> HvacServer::handle_write(const Bytes& req) {
  WireReader r(req);
  HVAC_ASSIGN_OR_RETURN(uint64_t remote_fd, r.get_u64());
  HVAC_ASSIGN_OR_RETURN(uint64_t offset, r.get_u64());
  HVAC_ASSIGN_OR_RETURN(WireReader::BlobView blob, r.get_blob_view());
  if (blob.size > proto::kMaxReadChunk) {
    return Error(ErrorCode::kInvalidArgument, "write chunk too large");
  }
  HVAC_ASSIGN_OR_RETURN(std::shared_ptr<WriteHandle> h,
                        find_write_fd(remote_fd));
  std::lock_guard<std::mutex> handle_lock(h->mutex);

  if (h->mode == proto::kWriteBack) {
    // Capacity gate (and fault site) before the bytes land, so an
    // ENOSPC write sheds and lands on the PFS instead.
    Status gate = [&]() -> Status {
      HVAC_RETURN_IF_ERROR(fault::check(fault::Site::kStoreWrite));
      const uint64_t new_size =
          std::max<uint64_t>(h->size, offset + blob.size);
      if (new_size > h->size) {
        HVAC_RETURN_IF_ERROR(
            cache_->store().update_size(h->logical_path, new_size));
        h->size = new_size;
      }
      return Status::Ok();
    }();
    if (!gate.ok()) {
      if (gate.error().code != ErrorCode::kCapacity) return gate.error();
      HVAC_RETURN_IF_ERROR(shed_to_write_through(*h));
    }
  }

  size_t n = 0;
  if (h->mode == proto::kWriteBack) {
    HVAC_ASSIGN_OR_RETURN(n, h->file.pwrite(blob.data, blob.size, offset));
    h->unsynced = true;
    local_write_bytes_.fetch_add(n, std::memory_order_relaxed);
    // Seq bump after the pwrite: a flusher snapshot taken from here on
    // is guaranteed to copy these bytes.
    std::lock_guard<std::mutex> lock(write_state_mutex_);
    last_write_seq_[h->logical_path] = ++write_seq_counter_;
  } else {
    HVAC_ASSIGN_OR_RETURN(
        n, pfs_->pwrite(h->pfs_file, blob.data, blob.size, offset));
    write_through_bytes_.fetch_add(n, std::memory_order_relaxed);
  }
  writes_.fetch_add(1, std::memory_order_relaxed);
  write_bytes_.fetch_add(n, std::memory_order_relaxed);

  WireWriter w;
  w.put_u32(static_cast<uint32_t>(n));
  return std::move(w).take();
}

Result<HvacServer::BarrierRequest> HvacServer::parse_barrier(
    const Bytes& req) {
  WireReader r(req);
  BarrierRequest b;
  HVAC_ASSIGN_OR_RETURN(b.remote_fd, r.get_u64());
  HVAC_ASSIGN_OR_RETURN(b.level, r.get_u8());
  if (!r.exhausted()) {
    HVAC_ASSIGN_OR_RETURN(b.fd_bytes, r.get_u64());
  }
  return b;
}

Status HvacServer::sync_handle(WriteHandle& h, const BarrierRequest& b) {
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  if (h.mode == proto::kWriteThrough) {
    return h.pfs_file.sync();
  }
  if (b.fd_bytes > 0) {
    h.unsynced = true;
    local_write_bytes_.fetch_add(b.fd_bytes, std::memory_order_relaxed);
  }
  if (h.unsynced) {
    // Ordered write-back: the bytes are on local media before the
    // record that commits them, so neither a kill -9 nor a power loss
    // can leave a committed size over bytes that never landed.
    {
      trace::Span span("server.data_sync");
      HVAC_RETURN_IF_ERROR(h.file.datasync());
    }
    HVAC_RETURN_IF_ERROR(fault::check(fault::Site::kWriteBarrier));
    HVAC_ASSIGN_OR_RETURN(uint64_t size, h.file.size());
    if (size > h.size) {
      Status charged = cache_->store().update_size(h.logical_path, size);
      if (!charged.ok()) {
        if (charged.error().code != ErrorCode::kCapacity) return charged;
        // Every byte is in the PFS file now: sync it, and the kCapacity
        // answer is the barrier's ack (the client drops its fd).
        HVAC_RETURN_IF_ERROR(shed_to_write_through(h));
        HVAC_RETURN_IF_ERROR(h.pfs_file.sync());
        return charged;
      }
    }
    h.size = size;
    {
      std::lock_guard<std::mutex> lock(write_state_mutex_);
      HVAC_RETURN_IF_ERROR(journal_->append_size(h.logical_path, size));
      last_write_seq_[h.logical_path] = ++write_seq_counter_;
      dirty_bytes_by_path_[h.logical_path] = size;
    }
    trace::Span span("server.journal_sync");
    HVAC_RETURN_IF_ERROR(journal_->commit());
    h.unsynced = false;
  }
  if (b.level == proto::kDurabilityPfs) {
    HVAC_RETURN_IF_ERROR(flusher_->submit(h.logical_path));
    HVAC_RETURN_IF_ERROR(flusher_->wait(h.logical_path));
  }
  return Status::Ok();
}

Result<Bytes> HvacServer::handle_fsync(const Bytes& req) {
  HVAC_ASSIGN_OR_RETURN(BarrierRequest b, parse_barrier(req));
  HVAC_ASSIGN_OR_RETURN(std::shared_ptr<WriteHandle> h,
                        find_write_fd(b.remote_fd));
  std::lock_guard<std::mutex> lock(h->mutex);
  HVAC_RETURN_IF_ERROR(sync_handle(*h, b));
  return Bytes{};
}

Result<Bytes> HvacServer::handle_write_close(const Bytes& req) {
  HVAC_ASSIGN_OR_RETURN(BarrierRequest b, parse_barrier(req));
  HVAC_ASSIGN_OR_RETURN(std::shared_ptr<WriteHandle> h,
                        find_write_fd(b.remote_fd));
  Status synced;
  {
    std::lock_guard<std::mutex> lock(h->mutex);
    synced = sync_handle(*h, b);
  }
  // Drop the handle even when the barrier failed: the client erases
  // its vfd before this RPC, so a kept handle (and its open files)
  // would just leak until shutdown. What an earlier barrier committed
  // is in the journal, so nothing acked is lost by letting go.
  {
    std::lock_guard<std::mutex> lock(write_fds_mutex_);
    write_fds_.erase(b.remote_fd);
  }
  // The file's one PFS copy (a pfs-level barrier has made it already).
  bool dirty = false;
  {
    std::lock_guard<std::mutex> lock(write_state_mutex_);
    dirty = dirty_bytes_by_path_.count(h->logical_path) > 0;
  }
  if (dirty) {
    Status s = flusher_->submit(h->logical_path);
    if (!s.ok()) {
      // Shutdown race: the journal has the committed size; the next
      // start()'s replay resubmits the path.
      HVAC_LOG_WARN("flush submit failed: " << s.error().to_string());
    }
  }
  if (!synced.ok()) return synced.error();
  return Bytes{};
}

void HvacServer::on_flushed(const std::string& logical_path) {
  bool clean = false;
  {
    std::lock_guard<std::mutex> lock(write_state_mutex_);
    auto last = last_write_seq_.find(logical_path);
    auto snap = flush_snapshot_seq_.find(logical_path);
    const uint64_t last_seq =
        last == last_write_seq_.end() ? 0 : last->second;
    const uint64_t snap_seq =
        snap == flush_snapshot_seq_.end() ? 0 : snap->second;
    clean = last_seq == snap_seq;
    if (clean) {
      Status s = journal_->append_flushed(logical_path);
      if (!s.ok()) {
        HVAC_LOG_WARN("journal flushed record failed: "
                      << s.error().to_string());
      }
      dirty_bytes_by_path_.erase(logical_path);
      last_write_seq_.erase(logical_path);
      flush_snapshot_seq_.erase(logical_path);
      if (dirty_bytes_by_path_.empty()) {
        // Everything acked is on the PFS: restart the journal so it
        // stays bounded by one burst of unflushed writes. Writers
        // append under this same mutex, so nothing races the reset.
        s = journal_->checkpoint_reset();
        if (!s.ok()) {
          HVAC_LOG_WARN("journal reset failed: " << s.error().to_string());
        }
      }
    }
  }
  if (!clean) {
    // A write landed after the copy began: the PFS may hold a stale
    // prefix. Flush again rather than marking the path clean. This
    // callback runs on a flusher worker, so the non-blocking resubmit
    // is mandatory: a capacity-blocked submit() here could park every
    // worker on space_cv_ with nobody left to drain the queue.
    Status s = flusher_->resubmit(logical_path);
    if (!s.ok()) {
      HVAC_LOG_WARN("flush resubmit failed: " << s.error().to_string());
    }
  }
}

storage::JournalReplayStats HvacServer::last_replay() const {
  return last_replay_;
}

// Fills every section from its source. Many sources are process-wide
// globals; the schema's scope column (core/metrics_schema.h) says which,
// so NodeRuntime takes them once across co-resident instances.
core::MetricsFrame HvacServer::metrics_frame() const {
  core::MetricsFrame f;
  f.cache = cache_->metrics();
  f.open_fds = open_remote_fds();

  const storage::LocalStore::FdStats fds = cache_->store().fd_stats();
  f.handle_cache.hits = fds.hits;
  f.handle_cache.misses = fds.misses;
  f.handle_cache.open = fds.open;
  f.handle_cache.pinned = fds.pinned;
  f.handle_cache.deferred_closes = fds.deferred_closes;
  f.handle_cache.capacity = fds.budget;

  const BufferPool::Stats bp = BufferPool::global().stats();
  f.buffer_pool.leases = bp.hits + bp.misses + bp.unpooled;
  f.buffer_pool.pool_hits = bp.hits;
  f.buffer_pool.fallback_allocs = bp.misses + bp.unpooled;
  f.buffer_pool.recycled = bp.recycled;
  f.buffer_pool.dropped = bp.dropped;

  const auto load = [](const std::atomic<uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  const core::ReadAheadCounters& ra = core::ReadAheadCounters::global();
  f.readahead.issued = load(ra.issued);
  f.readahead.consumed = load(ra.consumed);
  f.readahead.wasted = load(ra.wasted);

  const rpc::ResilienceCounters& rc = rpc::ResilienceCounters::global();
  f.resilience.breaker_opens = load(rc.breaker_opens);
  f.resilience.breaker_closes = load(rc.breaker_closes);
  f.resilience.breaker_probes = load(rc.breaker_probes);
  f.resilience.breaker_shed = load(rc.breaker_shed);
  f.resilience.retries = load(rc.retries);
  f.resilience.deadline_misses = load(rc.deadline_misses);
  f.resilience.server_shed = load(rc.server_shed);
  f.resilience.mover_rejects = load(rc.mover_rejects);
  f.resilience.drains = load(rc.drains);
  f.resilience.drained_requests = load(rc.drained_requests);
  f.resilience.faults_injected = fault::total_injected();

  const rpc::ZeroCopyCounters& zc = rpc::ZeroCopyCounters::global();
  f.zerocopy.sendfile_sends = load(zc.sendfile_sends);
  f.zerocopy.sendfile_bytes = load(zc.sendfile_bytes);
  f.zerocopy.short_resumes = load(zc.short_resumes);
  f.zerocopy.fd_passes = load(zc.fd_passes);
  f.zerocopy.fd_pass_bytes = load(zc.fd_pass_bytes);

  const core::MetaCacheCounters& mc = core::MetaCacheCounters::global();
  f.meta_cache.hits = load(mc.hits);
  f.meta_cache.misses = load(mc.misses);
  f.meta_cache.expired = load(mc.expired);
  f.meta_cache.invalidated = load(mc.invalidated);

  const trace::Stats ts = trace::stats();
  f.trace.emitted = ts.emitted;
  f.trace.dropped = ts.dropped;
  f.trace.rings = ts.rings;
  f.trace.ring_capacity = ts.ring_capacity;
  f.trace.occupancy = ts.occupancy;

  // This instance's reactor row (section 9); steals and
  // steal_backoffs stay 0 (core::ReactorStats).
  const rpc::RpcServer::ReactorStats rs = rpc_.reactor_stats();
  core::ReactorStats::PerReactor row;
  row.conns = rs.conns;
  row.requests = rs.requests;
  row.shed = rs.shed;
  row.local_conns = rs.local_conns;
  f.reactor.reactors.push_back(row);

  // Checkpoint write path (section 10).
  f.write_back.writes = load(writes_);
  f.write_back.bytes_written = load(write_bytes_);
  f.write_back.fsyncs = load(fsyncs_);
  f.write_back.write_through_sheds = load(write_through_sheds_);
  f.write_back.write_through_bytes = load(write_through_bytes_);
  f.write_back.local_write_bytes = load(local_write_bytes_);
  {
    std::lock_guard<std::mutex> lock(write_state_mutex_);
    f.write_back.dirty_files = dirty_bytes_by_path_.size();
    for (const auto& [path, bytes] : dirty_bytes_by_path_) {
      f.write_back.dirty_bytes += bytes;
    }
  }
  if (journal_) {
    f.write_back.journal_records = journal_->record_count();
    f.write_back.journal_bytes = journal_->size_bytes();
  }
  if (flusher_) {
    const core::FlushManager::Stats fs = flusher_->stats();
    f.write_back.flushed_files = fs.flushed_files;
    f.write_back.flush_retries = fs.retries;
    f.write_back.flush_failures = fs.failures;
    f.write_back.flush_queue_depth = fs.queue_depth;
    f.write_back.flush_inflight = fs.inflight;
    f.write_back.flush_lag_ms = fs.oldest_dirty_ms;
  }
  f.write_back.replay_writes = last_replay_.sizes_committed;
  f.write_back.replay_bytes = replay_requeued_bytes_;
  f.write_back.replay_truncated_bytes = last_replay_.truncated_bytes;
  f.write_back.replay_dirty_files = last_replay_.dirty.size();

  // Clairvoyant prefetch (section 11): the scheduler counters are
  // nonzero when a client shares this process (the embedded/bench
  // topology); the dedup words are this instance's mover.
  const core::PrefetchCounters& pf = core::PrefetchCounters::global();
  f.prefetch.planned = load(pf.planned);
  f.prefetch.issued = load(pf.issued);
  f.prefetch.completed = load(pf.completed);
  f.prefetch.shed = load(pf.shed);
  f.prefetch.late = load(pf.late);
  f.prefetch.hit_after_prefetch = load(pf.hit_after);
  f.prefetch.deduped = mover_->dedup_coalesced();
  f.prefetch.dedup_inflight = mover_->dedup_inflight();
  f.prefetch.paced_delay = pf.paced_delay.snapshot();

  // Client-side per-epoch stall attribution (process-wide, populated
  // when a co-located HvacClient runs in this process; zero rows on a
  // pure server).
  f.stall.epochs = core::StallCounters::global().snapshot();

  f.op_latency = latency_.snapshot();
  return f;
}

Result<Bytes> HvacServer::handle_metrics(const Bytes&) {
  return metrics_frame().encode();
}

Result<Bytes> HvacServer::handle_time_series(const Bytes&) {
  return ts_ring_->encode(ts_interval_ms_);
}

}  // namespace hvac::server
