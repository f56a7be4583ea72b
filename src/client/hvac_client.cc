#include "client/hvac_client.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <chrono>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "client/prefetch_scheduler.h"

#include "common/env.h"
#include "common/fault_injection.h"
#include "common/log.h"
#include "common/trace.h"
#include "core/metrics.h"
#include "rpc/health.h"
#include "core/segment.h"
#include "rpc/async_client.h"
#include "rpc/wire.h"
#include "server/hvac_proto.h"
#include "storage/packed_format.h"
#include "storage/posix_file.h"

namespace hvac::client {

using rpc::Bytes;
using rpc::WireReader;
using rpc::WireWriter;

namespace {

// ---- I/O stall attribution (frame v2 section 12) --------------------------
//
// Checkpoint charging: the top-level pread owns a thread-local
// timestamp; every attribution site charges the wall time since the
// previous checkpoint to one stall bucket and advances the
// checkpoint, so the per-epoch bucket sum equals the measured total
// by construction (no double counting, no gaps).
thread_local uint64_t t_stall_checkpoint = 0;

void stall_charge(core::StallBucket bucket) {
  if (t_stall_checkpoint == 0) return;  // not inside a timed read
  const uint64_t now = trace::now_ns();
  core::StallCounters::global().charge(bucket, now - t_stall_checkpoint);
  t_stall_checkpoint = now;
}

// Owns the checkpoint for one application-level read. Recursive
// pread_attempt calls (fd recovery) nest inside the same scope and
// keep charging against the outer checkpoint.
struct StallScope {
  const bool owner = t_stall_checkpoint == 0;
  StallScope() {
    if (owner) {
      t_stall_checkpoint = trace::now_ns();
      core::StallCounters::global().on_read();
    }
  }
  ~StallScope() {
    if (owner) {
      // The residual tail (decode, memcpy, fd-table bookkeeping)
      // counts as local service time.
      stall_charge(core::StallBucket::kLocalHit);
      t_stall_checkpoint = 0;
    }
  }
};

// A direct-PFS read entry for `path`, sized from the file itself.
Result<core::FdEntry> pfs_read_entry(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Error::from_errno(errno, "open " + path);
  const off_t end = ::lseek(fd, 0, SEEK_END);
  core::FdEntry entry;
  entry.logical_path = path;
  entry.fallback_pfs = true;
  entry.pfs_fd = fd;
  entry.size = end < 0 ? 0 : static_cast<uint64_t>(end);
  return entry;
}

// Every byte of [buf, buf + count) into `fd` at `offset`.
Status pwrite_exact(int fd, const uint8_t* buf, size_t count,
                    uint64_t offset, const char* what) {
  for (size_t done = 0; done < count;) {
    const ssize_t n = ::pwrite(fd, buf + done, count - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return Error::from_errno(errno, what);
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

Result<HvacClientOptions> options_from_env() {
  HvacClientOptions o;
  auto dataset = env_string("HVAC_DATASET_DIR");
  if (!dataset.has_value() || dataset->empty()) {
    return Error(ErrorCode::kInvalidArgument, "HVAC_DATASET_DIR not set");
  }
  o.dataset_dir = lexically_normal(*dataset);
  auto servers = env_string("HVAC_SERVERS");
  if (!servers.has_value() || servers->empty()) {
    return Error(ErrorCode::kInvalidArgument, "HVAC_SERVERS not set");
  }
  o.server_endpoints = split_csv(*servers);
  o.replicas = static_cast<uint32_t>(env_int_or("HVAC_REPLICAS", 1));
  const std::string policy = env_string_or("HVAC_PLACEMENT", "hash-modulo");
  if (policy == "rendezvous") {
    o.placement = core::PlacementPolicy::kRendezvous;
  } else if (policy == "jump") {
    o.placement = core::PlacementPolicy::kJump;
  }
  o.allow_pfs_fallback = env_bool_or("HVAC_PFS_FALLBACK", true);
  o.segment_bytes =
      static_cast<uint64_t>(env_int_or("HVAC_SEGMENT_BYTES", 0));
  const int64_t readahead = env_int_or("HVAC_READAHEAD", 2);
  o.readahead_chunks =
      readahead > 0 ? static_cast<uint32_t>(readahead) : 0;
  const int64_t pf_depth = env_int_or("HVAC_PREFETCH_DEPTH", 0);
  o.prefetch_depth = pf_depth > 0 ? static_cast<uint32_t>(pf_depth) : 0;
  if (auto bw = env_string("HVAC_PREFETCH_BW_MBPS");
      bw.has_value() && !bw->empty()) {
    const double mbps = std::strtod(bw->c_str(), nullptr);
    o.prefetch_bw_mbps = mbps > 0 ? mbps : 0.0;
  }
  o.prefetch_plan_file = env_string_or("HVAC_PREFETCH_PLAN", "");
  o.meta_ttl_ms = env_int_or("HVAC_META_TTL_MS", o.meta_ttl_ms);
  o.packed_enabled = env_bool_or("HVAC_PACK", true);
  const std::string durability =
      env_string_or("HVAC_WRITE_DURABILITY", "local");
  o.write_durability = durability == "pfs" ? proto::kDurabilityPfs
                                           : proto::kDurabilityLocal;
  // Fault-domain knob: an end-to-end deadline per call.
  o.rpc.call_timeout_ms =
      static_cast<int>(env_int_or("HVAC_CALL_TIMEOUT_MS",
                                  o.rpc.call_timeout_ms));
  return o;
}

HvacClient::HvacClient(HvacClientOptions options)
    : options_(std::move(options)),
      placement_(static_cast<uint32_t>(options_.server_endpoints.size()),
                 options_.placement, options_.replicas),
      meta_(options_.meta_ttl_ms) {
  fault::init_from_env();
  options_.dataset_dir = lexically_normal(options_.dataset_dir);
  channels_.resize(options_.server_endpoints.size());
  async_channels_.resize(options_.server_endpoints.size());
  slabs_.resize(options_.server_endpoints.size());
  // A plan file turns clairvoyant prefetch on for processes that never
  // call set_access_plan() themselves — the LD_PRELOAD shim's path.
  if (!options_.prefetch_plan_file.empty()) {
    std::ifstream in(options_.prefetch_plan_file);
    if (!in) {
      HVAC_LOG_INFO("prefetch plan unreadable, ignoring: "
                    << options_.prefetch_plan_file);
    } else {
      std::vector<std::string> plan;
      std::string line;
      while (std::getline(in, line)) {
        if (!line.empty()) plan.push_back(std::move(line));
      }
      if (!plan.empty()) set_access_plan(plan);
    }
  }
}

HvacClient::~HvacClient() {
  // Stop the issue thread before the channels it rides on go away.
  if (prefetch_) prefetch_->stop();
}

void HvacClient::set_access_plan(const std::vector<std::string>& paths) {
  std::vector<std::string> logicals;
  logicals.reserve(paths.size());
  for (const auto& path : paths) {
    // Plans carry absolute paths (the shim sees absolute opens) or
    // already-logical ones; ineligible entries are dropped — a stale
    // plan line must never break training.
    if (auto logical = logical_path(path); logical.ok()) {
      logicals.push_back(std::move(*logical));
    } else if (!path.empty() && path.front() != '/') {
      logicals.push_back(lexically_normal(path));
    }
  }
  {
    std::lock_guard<std::mutex> lock(prefetch_mutex_);
    if (!prefetch_) {
      PrefetchSchedulerOptions po;
      if (options_.prefetch_depth > 0) po.depth = options_.prefetch_depth;
      po.bw_mbps = options_.prefetch_bw_mbps;
      prefetch_ = std::make_unique<PrefetchScheduler>(this, po);
      prefetch_ptr_.store(prefetch_.get(), std::memory_order_release);
    }
  }
  prefetch_->set_plan(std::move(logicals));
}

bool HvacClient::eligible(const std::string& path) const {
  return under_dir(path, options_.dataset_dir);
}

Result<std::string> HvacClient::logical_path(const std::string& path) const {
  std::optional<std::string> logical =
      relative_under(path, options_.dataset_dir);
  if (!logical.has_value()) {
    return Error(ErrorCode::kInvalidArgument,
                 path + " is not under " + options_.dataset_dir);
  }
  return std::move(*logical);
}

uint32_t HvacClient::home_of(const std::string& path) const {
  auto logical = logical_path(path);
  return placement_.home(logical.ok() ? *logical : path);
}

rpc::RpcClient& HvacClient::channel(uint32_t server_index) {
  std::lock_guard<std::mutex> lock(channels_mutex_);
  auto& slot = channels_.at(server_index);
  if (!slot) {
    slot = std::make_unique<rpc::RpcClient>(
        rpc::Endpoint{options_.server_endpoints[server_index]},
        options_.rpc);
  }
  return *slot;
}

rpc::AsyncRpcClient& HvacClient::async_channel(uint32_t server_index) {
  std::lock_guard<std::mutex> lock(channels_mutex_);
  auto& slot = async_channels_.at(server_index);
  if (!slot) {
    slot = std::make_unique<rpc::AsyncRpcClient>(
        rpc::Endpoint{options_.server_endpoints[server_index]},
        options_.rpc);
  }
  return *slot;
}

// ---- sequential read-ahead ------------------------------------------------
//
// When a vfd reads sequentially (the DL-training common case: one
// sample file streamed front to back), the next chunks are requested
// over the async channel before the application asks, so the server's
// pread and the network transfer overlap with client-side compute.
// Everything fails open: a lost or mismatched read-ahead chunk just
// degrades to the synchronous path.

// Counts the chunks of a dead window as wasted (frame v2 read-ahead
// telemetry: bytes fetched ahead that the application never took).
void HvacClient::discard_window(ReadAheadState& state) {
  if (state.pending.empty()) return;
  core::ReadAheadCounters::global().wasted.fetch_add(
      state.pending.size(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.readahead_wasted += state.pending.size();
  }
  state.pending.clear();
  state.issued_end = 0;
}

std::optional<HvacClient::PendingChunk> HvacClient::readahead_take(
    int vfd, uint64_t offset, uint32_t count, uint64_t file_size) {
  std::lock_guard<std::mutex> lock(ra_mutex_);
  auto it = ra_.find(vfd);
  if (it == ra_.end() || it->second.pending.empty()) return std::nullopt;
  auto& pending = it->second.pending;
  const PendingChunk& front = pending.front();
  // A shorter pending chunk is still a hit when it runs to EOF (the
  // issue path clamps the final chunk to the file size); any other
  // mismatch means the fd went non-sequential and the window is dead.
  const bool match =
      front.offset == offset &&
      (front.count == count ||
       (front.count < count && offset + front.count >= file_size));
  if (!match) {
    // The pattern broke: every pending chunk was wasted, so the
    // adaptive policy halves the window before the next run starts.
    it->second.policy.on_miss();
    discard_window(it->second);
    return std::nullopt;
  }
  PendingChunk chunk = std::move(pending.front());
  pending.pop_front();
  return chunk;
}

void HvacClient::readahead_advance(int vfd, const core::FdEntry& entry,
                                   uint64_t offset, size_t got,
                                   uint32_t chunk) {
  if (options_.readahead_chunks == 0 || chunk == 0) return;
  std::lock_guard<std::mutex> lock(ra_mutex_);
  const auto [slot, inserted] = ra_.try_emplace(vfd);
  ReadAheadState& state = slot->second;
  if (inserted) {
    // HVAC_READAHEAD seeds the adaptive window; the policy grows or
    // shrinks it per fd from the measured inter-arrival gap.
    state.policy.depth = options_.readahead_chunks;
    state.policy.max_depth =
        std::max(options_.readahead_chunks, state.policy.max_depth);
  }
  const bool sequential = offset == state.next_expected;
  const uint64_t now = trace::now_ns();
  if (sequential && state.last_arrival_ns != 0 &&
      now > state.last_arrival_ns) {
    state.policy.on_sequential(now - state.last_arrival_ns);
  }
  state.last_arrival_ns = now;
  state.next_expected = offset + got;
  if (!sequential) {
    state.policy.on_miss();
    discard_window(state);
    return;
  }
  if (got < chunk) return;  // EOF reached; nothing left to fetch
  if (state.issued_end < state.next_expected) {
    state.issued_end = state.next_expected;
  }
  // The whole top-up goes out as ONE kReadScatter call: N chunks, one
  // framed response (single header, single kernel-copied burst on the
  // server's hit path) instead of N round trips' worth of frames.
  std::vector<std::pair<uint64_t, uint32_t>> batch;
  uint64_t batch_bytes = 0;
  uint64_t cursor = state.issued_end;
  while (state.pending.size() + batch.size() < state.policy.depth &&
         batch.size() < proto::kMaxScatterExtents && cursor < entry.size) {
    const uint32_t next_count = static_cast<uint32_t>(
        std::min<uint64_t>(chunk, entry.size - cursor));
    if (batch_bytes + next_count > proto::kMaxScatterBytes) break;
    batch.emplace_back(cursor, next_count);
    batch_bytes += next_count;
    cursor += next_count;
  }
  if (batch.empty()) return;
  WireWriter w;
  w.put_u8(1);  // by path
  w.put_string(entry.logical_path);
  w.put_u32(static_cast<uint32_t>(batch.size()));
  for (const auto& [off, len] : batch) {
    w.put_u64(off);
    w.put_u32(len);
  }
  const std::shared_future<Result<Bytes>> shared =
      async_channel(entry.server_index)
          .call_async(proto::kReadScatter, w.bytes())
          .share();
  for (uint32_t i = 0; i < batch.size(); ++i) {
    PendingChunk next;
    next.offset = batch[i].first;
    next.count = batch[i].second;
    next.data = shared;
    next.extent_index = i;
    state.pending.push_back(std::move(next));
  }
  state.issued_end = cursor;
  core::ReadAheadCounters::global().issued.fetch_add(
      batch.size(), std::memory_order_relaxed);
  std::lock_guard<std::mutex> stats_lock(stats_mutex_);
  stats_.readahead_issued += batch.size();
}

void HvacClient::readahead_drop(int vfd) {
  std::lock_guard<std::mutex> lock(ra_mutex_);
  auto it = ra_.find(vfd);
  if (it == ra_.end()) return;
  discard_window(it->second);
  ra_.erase(it);
}

Result<int> HvacClient::open_via_pfs(const std::string& path) {
  HVAC_ASSIGN_OR_RETURN(core::FdEntry entry, pfs_read_entry(path));
  const int vfd = fds_.insert(std::move(entry));
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.fallback_opens;
  return vfd;
}

std::optional<MetaEntry> HvacClient::meta_lookup(const std::string& logical) {
  if (!meta_.enabled()) return std::nullopt;
  std::optional<MetaEntry> meta = meta_.lookup(logical);
  if (meta.has_value() &&
      meta->home < options_.server_endpoints.size()) {
    // Breaker-trip invalidation: the entry's home has an open circuit,
    // so acting on the cached location would only fail fast anyway.
    // Drop everything we remembered about that server.
    auto health = rpc::HealthRegistry::global().get(
        options_.server_endpoints[meta->home]);
    if (health->state() == rpc::EndpointHealth::State::kOpen) {
      meta_.invalidate_home(meta->home);
      meta.reset();
    }
  } else {
    meta.reset();
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  if (meta.has_value()) {
    ++stats_.meta_hits;
  } else {
    ++stats_.meta_misses;
  }
  return meta;
}

std::optional<PackedCatalog::Resolved> HvacClient::packed_lookup(
    const std::string& logical) {
  if (!options_.packed_enabled || options_.server_endpoints.empty()) {
    return std::nullopt;
  }
  return packed_.resolve(
      logical,
      [this]() -> Result<std::optional<std::vector<uint8_t>>> {
        // The index is served from memory by every instance; ask the
        // one that homes the index's own logical path so the fetch
        // load spreads like any other file's.
        const uint32_t server =
            placement_.home(storage::packed_index_logical());
        HVAC_ASSIGN_OR_RETURN(
            Bytes resp,
            channel(server).call_idempotent(proto::kPackedIndex, Bytes{}));
        WireReader r(resp);
        HVAC_ASSIGN_OR_RETURN(uint8_t present, r.get_u8());
        if (present == 0) return std::optional<std::vector<uint8_t>>{};
        HVAC_ASSIGN_OR_RETURN(WireReader::BlobView raw, r.get_blob_view());
        return std::optional<std::vector<uint8_t>>(
            std::vector<uint8_t>(raw.data, raw.data + raw.size));
      });
}

Result<int> HvacClient::open(const std::string& path) {
  trace::Span span("client.open");
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.opens;
  }
  HVAC_RETURN_IF_ERROR(fault::check(fault::Site::kOpen));
  HVAC_ASSIGN_OR_RETURN(std::string logical, logical_path(path));

  // Every open advances the clairvoyant training cursor (and slides
  // the prefetch lookahead window forward).
  if (PrefetchScheduler* pf = prefetch_scheduler()) pf->on_access(logical);

  // Packed sample: everything open() needs (size, home) comes from the
  // locally cached index — hand out a fd with zero round trips. The fd
  // homes at the *container's* home server (that is where the blob
  // gets cached); reads still address the sample by its own logical
  // path and the server translates per read.
  if (std::optional<PackedCatalog::Resolved> packed = packed_lookup(logical)) {
    if (PrefetchScheduler* pf = prefetch_scheduler()) {
      pf->observe_sample_bytes(packed->length);
    }
    core::FdEntry entry;
    entry.logical_path = logical;
    entry.server_index = placement_.home(packed->container_logical);
    entry.size = packed->length;
    entry.container_logical = std::move(packed->container_logical);
    entry.base = packed->base;
    const int vfd = fds_.insert(std::move(entry));
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.remote_opens;
    return vfd;
  }

  // Segment-level caching: a large file is not opened on one home
  // server at all — reads address (segment, offset) pairs and each
  // segment has its own home. All we need up front is the size.
  if (options_.segment_bytes > 0) {
    const auto size = stat_size(path);
    if (size.ok() && *size > options_.segment_bytes) {
      core::FdEntry entry;
      entry.logical_path = logical;
      entry.segmented = true;
      entry.size = *size;
      const int vfd = fds_.insert(std::move(entry));
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.remote_opens;
      return vfd;
    }
  }

  // Metadata-cache fast path: a fresh entry saying "home X holds a
  // cached copy of this file" lets us skip the open round trip — reads
  // address the file by logical path like every read, and the server
  // re-resolves its cached copy per read. If the copy was evicted
  // meanwhile the server degrades that read to its PFS path, so a
  // stale entry costs latency, never correctness.
  // A file the home served from a slab is re-opened this way only
  // while the client still holds that slab; otherwise the kOpen below
  // passes it again.
  if (std::optional<MetaEntry> meta = meta_lookup(logical);
      meta.has_value() && meta->cached) {
    std::shared_ptr<core::SlabFd> slab;
    if (meta->in_slab) slab = held_slab(meta->home, meta->slab);
    if (!meta->in_slab || slab != nullptr) {
      if (PrefetchScheduler* pf = prefetch_scheduler()) {
        pf->observe_sample_bytes(meta->size);
      }
      core::FdEntry entry;
      entry.logical_path = logical;
      entry.server_index = meta->home;
      entry.size = meta->size;
      entry.base = meta->base;
      entry.slab = std::move(slab);
      const bool local = entry.slab != nullptr;
      const int vfd = fds_.insert(std::move(entry));
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.remote_opens;
      if (local) ++stats_.passed_fd_opens;
      return vfd;
    }
  }

  // Try the primary home, then the replicas (paper §III-H fail-over) —
  // but walk replicas whose breaker is open LAST, so a file homed at a
  // known-dead primary goes straight to a live replica instead of
  // burning a shed/backoff cycle first.
  const std::vector<uint32_t> homes = core::order_by_health(
      placement_.homes(logical), options_.server_endpoints);
  Error last_error(ErrorCode::kUnavailable, "no servers");
  for (size_t attempt = 0; attempt < homes.size(); ++attempt) {
    const uint32_t server = homes[attempt];
    Result<int> vfd = open_remote(logical, server);
    if (vfd.ok()) {
      if (attempt > 0) {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.failovers;
      }
      return vfd;
    }
    last_error = vfd.error();
    // Transport failures and malformed replies justify fail-over; a
    // real error from a healthy server (ENOENT etc.) is final.
    if (last_error.code != ErrorCode::kUnavailable &&
        last_error.code != ErrorCode::kTimeout &&
        last_error.code != ErrorCode::kProtocol) {
      return last_error;
    }
    meta_.invalidate(logical);
    HVAC_LOG_DEBUG("open failover from server " << server << ": "
                                                << last_error.to_string());
  }

  if (options_.allow_pfs_fallback) {
    HVAC_LOG_INFO("falling back to PFS for " << path);
    return open_via_pfs(path);
  }
  return last_error;
}

Result<int> HvacClient::open_remote(const std::string& logical,
                                    uint32_t server, bool takes_fd) {
  // The listed slabs stay open until the reply is matched, so an inode
  // the reply names cannot have been closed, and reused, meanwhile.
  std::vector<std::shared_ptr<core::SlabFd>> held;
  if (takes_fd) {
    std::lock_guard<std::mutex> lock(slabs_mutex_);
    held = slabs_[server];
  }
  WireWriter w;
  w.put_string(logical);
  w.put_u8(1);  // stateless: no server-side fd, small files inline
  // takes_fd: a local home may name its cache slab.
  w.put_u8(takes_fd ? 1 : 0);
  if (takes_fd) {
    w.put_u8(static_cast<uint8_t>(held.size()));
    for (const auto& slab : held) w.put_u64(slab->ino);
  }
  HVAC_ASSIGN_OR_RETURN(
      rpc::Payload resp,
      channel(server).call_payload(proto::kOpen, w.bytes(), takes_fd));
  WireReader r(resp.data(), resp.size());
  HVAC_ASSIGN_OR_RETURN(uint64_t remote_fd, r.get_u64());
  (void)remote_fd;  // 0: the stateless reply allocates none
  HVAC_ASSIGN_OR_RETURN(uint64_t size, r.get_u64());
  HVAC_ASSIGN_OR_RETURN(uint8_t served_from, r.get_u8());
  HVAC_ASSIGN_OR_RETURN(WireReader::BlobView blob, r.get_blob_view());
  core::FdEntry entry;
  // A trailing {base, inode} names a cache slab (DESIGN.md §20) and
  // carries no bytes. Otherwise the blob is the whole file or nothing.
  // Any other length — short, overlong, or bytes for a file too big to
  // inline — would hand the application wrong bytes, so the reply is
  // rejected and the caller fails over. An fd the reply did not
  // promise closes with `resp`.
  const bool names_slab = !r.exhausted();
  const bool inlined = !names_slab && size <= proto::kMaxInlineBytes;
  if (blob.size != (inlined ? size : 0)) {
    return Error(ErrorCode::kProtocol,
                 "kOpen reply inlines " + std::to_string(blob.size) +
                     " bytes of a " + std::to_string(size) + "-byte file");
  }
  if (names_slab) {
    HVAC_ASSIGN_OR_RETURN(entry.base, r.get_u64());
    HVAC_ASSIGN_OR_RETURN(uint64_t ino, r.get_u64());
    if (!takes_fd || !r.exhausted()) {
      return Error(ErrorCode::kProtocol,
                   "kOpen reply names a slab it may not for " + logical);
    }
    Result<std::shared_ptr<core::SlabFd>> slab =
        reply_slab(server, resp.take_fd(), ino, entry.base, size, held);
    if (!slab.ok() && slab.error().code == ErrorCode::kNotFound) {
      // Neither held nor passed: at RLIMIT_NOFILE the kernel drops the
      // fd. Ask once more for a reply with the bytes, or read by RPC.
      return open_remote(logical, server, /*takes_fd=*/false);
    }
    if (!slab.ok()) return slab.error();
    entry.slab = std::move(slab).value();
  }
  if (PrefetchScheduler* pf = prefetch_scheduler()) {
    pf->observe_sample_bytes(size);
  }
  entry.logical_path = logical;
  entry.server_index = server;
  entry.size = size;
  if (inlined) {
    entry.inline_data = std::make_shared<const std::vector<uint8_t>>(
        blob.data, blob.data + blob.size);
  }
  const MetaEntry meta{size, server, served_from == proto::kFromCache,
                       entry.slab != nullptr, entry.slab, entry.base};
  const int vfd = fds_.insert(std::move(entry));
  meta_.put(logical, meta);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.remote_opens;
  if (names_slab) ++stats_.passed_fd_opens;
  return vfd;
}

std::shared_ptr<core::SlabFd> HvacClient::held_slab(
    uint32_t server, const std::weak_ptr<core::SlabFd>& slab) {
  std::shared_ptr<core::SlabFd> held = slab.lock();
  if (held == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(slabs_mutex_);
  auto& table = slabs_[server];
  auto it = std::find(table.begin(), table.end(), held);
  if (it == table.end()) return nullptr;
  std::rotate(it, it + 1, table.end());
  return held;
}

Result<std::shared_ptr<core::SlabFd>> HvacClient::reply_slab(
    uint32_t server, rpc::Fd passed, uint64_t ino, uint64_t base,
    uint64_t size, const std::vector<std::shared_ptr<core::SlabFd>>& held) {
  auto fits = [&](uint64_t slab_size) {
    return base <= slab_size && size <= slab_size - base;
  };
  auto stat_of = [](int fd, struct stat* st) {
    return ::fstat(fd, st) == 0 && S_ISREG(st->st_mode);
  };
  struct stat st{};
  if (passed.valid()) {
    if (!stat_of(passed.get(), &st) ||
        static_cast<uint64_t>(st.st_ino) != ino ||
        !fits(static_cast<uint64_t>(st.st_size))) {
      return Error(ErrorCode::kProtocol, "kOpen passed an fd that is not "
                                         "the slab it names");
    }
    auto slab = std::make_shared<core::SlabFd>(
        passed.release(), ino, static_cast<uint64_t>(st.st_size));
    // A new slab: let go of held ones whose file is gone (evicted, or
    // swept by a restarted server), then of the least recently used,
    // so a reader pins at most kMaxHeldSlabs slabs' blocks per server.
    std::lock_guard<std::mutex> lock(slabs_mutex_);
    auto& table = slabs_[server];
    table.erase(std::remove_if(table.begin(), table.end(),
                               [&](const auto& s) {
                                 struct stat h{};
                                 return s->ino == ino ||
                                        ::fstat(s->fd, &h) != 0 ||
                                        h.st_nlink == 0;
                               }),
                table.end());
    if (table.size() >= proto::kMaxHeldSlabs) table.erase(table.begin());
    table.push_back(slab);
    return slab;
  }
  auto it = std::find_if(held.begin(), held.end(),
                         [&](const auto& s) { return s->ino == ino; });
  if (it == held.end()) {
    return Error(ErrorCode::kNotFound, "kOpen named a slab not held");
  }
  const std::shared_ptr<core::SlabFd>& slab = *it;
  if (!fits(slab->known_size.load(std::memory_order_relaxed))) {
    // The slab may have grown since it was last sized.
    if (!stat_of(slab->fd, &st) || !fits(static_cast<uint64_t>(st.st_size))) {
      return Error(ErrorCode::kProtocol, "kOpen names a slot past the end "
                                         "of its slab");
    }
    slab->known_size.store(static_cast<uint64_t>(st.st_size),
                           std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(slabs_mutex_);
  auto& table = slabs_[server];
  auto at = std::find(table.begin(), table.end(), slab);
  if (at != table.end()) std::rotate(at, at + 1, table.end());
  return slab;
}

Result<size_t> HvacClient::pread_segmented(const core::FdEntry& entry,
                                           void* buf, size_t count,
                                           uint64_t offset) {
  if (offset >= entry.size) return size_t{0};
  count = static_cast<size_t>(
      std::min<uint64_t>(count, entry.size - offset));
  auto* out = static_cast<uint8_t*>(buf);
  size_t total = 0;
  Error failure(ErrorCode::kInternal, "");
  bool failed = false;
  core::for_each_segment(
      offset, count, options_.segment_bytes,
      [&](const core::SegmentRange& range) {
        if (failed) return;
        // Chunk within the segment to respect the RPC frame cap.
        uint64_t done = 0;
        while (done < range.length && !failed) {
          const uint32_t chunk = static_cast<uint32_t>(std::min<uint64_t>(
              range.length - done, options_.read_chunk_bytes));
          WireWriter w;
          w.put_string(entry.logical_path);
          w.put_u64(range.index);
          w.put_u64(options_.segment_bytes);
          w.put_u64(range.skip + done);
          w.put_u32(chunk);
          const uint32_t server = placement_.home(
              core::segment_key(entry.logical_path, range.index));
          Result<Bytes> resp =
              channel(server).call(proto::kReadSegment, w);
          if (!resp.ok()) {
            failure = resp.error();
            failed = true;
            return;
          }
          WireReader r(*resp);
          auto data = r.get_blob();
          if (!data.ok()) {
            failure = data.error();
            failed = true;
            return;
          }
          std::copy(data->begin(), data->end(), out + total);
          total += data->size();
          done += data->size();
          if (data->size() < chunk) return;  // EOF in final segment
        }
      });
  if (failed) return failure;
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.reads;
  stats_.bytes_read += total;
  return total;
}

Status HvacClient::recover_fd(int vfd, const core::FdEntry& stale,
                              bool force_pfs) {
  HVAC_LOG_INFO("recovering fd " << vfd << " for " << stale.logical_path
                                 << " after server loss");
  // Whatever the meta cache believed about this file routed us to the
  // server that just failed; any read-ahead in flight targets it too.
  meta_.invalidate(stale.logical_path);
  readahead_drop(vfd);
  core::FdEntry fresh = stale;
  bool retargeted = false;
  // A packed sample is placed, and lives on the PFS, as its container.
  const std::string& pfs_key = stale.container_logical.empty()
                                   ? stale.logical_path
                                   : stale.container_logical;
  if (!force_pfs) {
    // Reads carry the path, not a server-side fd, so there is nothing
    // to re-open: retarget to the next home after the failed one (a
    // replica, which serves or fetches its own copy), skipping homes
    // whose breaker is open.
    const std::vector<uint32_t> homes = placement_.homes(pfs_key);
    auto it = std::find(homes.begin(), homes.end(), stale.server_index);
    it = it == homes.end() ? homes.begin() : it + 1;
    for (; it != homes.end() && !retargeted; ++it) {
      const auto health = rpc::HealthRegistry::global().get(
          options_.server_endpoints[*it]);
      if (*it == stale.server_index ||
          health->state() == rpc::EndpointHealth::State::kOpen) {
        continue;
      }
      fresh.server_index = *it;
      retargeted = true;
    }
  }
  if (!retargeted) {
    if (!options_.allow_pfs_fallback) {
      return Error(ErrorCode::kUnavailable,
                   "remote reads keep failing and PFS fallback is disabled");
    }
    // A packed sample's own file may be gone (the originals are
    // deleted after packing): read it out of its container instead,
    // at its base and no further than its length.
    HVAC_ASSIGN_OR_RETURN(
        core::FdEntry pfs,
        pfs_read_entry(path_join(options_.dataset_dir, pfs_key)));
    if (!stale.container_logical.empty()) {
      pfs.size = stale.size;
      pfs.base = stale.base;
    }
    pfs.logical_path = stale.logical_path;
    fresh = std::move(pfs);
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.fallback_opens;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.failovers;
  }
  // The table keeps the application's offset across the swap.
  Status swapped = fds_.replace(vfd, fresh);
  if (!swapped.ok() && fresh.fallback_pfs) ::close(fresh.pfs_fd);
  return swapped;
}

Result<size_t> HvacClient::pread(int vfd, void* buf, size_t count,
                                 uint64_t offset) {
  trace::Span span("client.pread", count);
  StallScope stall;
  return pread_attempt(vfd, buf, count, offset, /*recoveries=*/0);
}

Result<size_t> HvacClient::pread_attempt(int vfd, void* buf, size_t count,
                                         uint64_t offset, int recoveries) {
  HVAC_RETURN_IF_ERROR(fault::check(fault::Site::kRead));
  HVAC_ASSIGN_OR_RETURN(core::FdEntry entry, fds_.get(vfd));

  if (entry.segmented) {
    Result<size_t> n = pread_segmented(entry, buf, count, offset);
    stall_charge(core::StallBucket::kRemoteRpc);
    return n;
  }
  if (entry.writable) {
    // A checkpoint write handle has no read side (O_WRONLY).
    return Error(ErrorCode::kBadFd, "fd not open for reading");
  }
  // Every read fd's size is authoritative (the open reply, the meta
  // cache or the packed index, for immutable dataset files; the file
  // itself on the PFS): nothing past it is requested, and a read at EOF
  // returns 0 without a round trip.
  count = offset < entry.size
              ? static_cast<size_t>(std::min<uint64_t>(count,
                                                       entry.size - offset))
              : 0;
  if (entry.fallback_pfs || entry.slab != nullptr) {
    // A packed sample sits at `base` inside its container blob, a
    // slab-cached file at `base` inside its slab.
    const bool pfs = entry.fallback_pfs;
    const ssize_t n = ::pread(pfs ? entry.pfs_fd : entry.slab->fd, buf,
                              count, static_cast<off_t>(entry.base + offset));
    stall_charge(pfs ? core::StallBucket::kPfsWait
                     : core::StallBucket::kLocalHit);
    if (n < 0) return Error::from_errno(errno, pfs ? "pread(pfs)"
                                                   : "pread(cache slab)");
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.reads;
    stats_.bytes_read += static_cast<uint64_t>(n);
    return static_cast<size_t>(n);
  }

  auto* out = static_cast<uint8_t*>(buf);
  size_t total = 0;

  // The serving copy failed us: recover like the home died — retarget
  // to a replica, then the PFS — and finish the read there (fail-open
  // extends to in-flight fds, §III-H). Recovery is bounded: a server
  // that answers opens but fails every read (e.g. a hostile frame
  // bound) must not trap the client in a loop, so the last attempt
  // goes straight to the PFS.
  auto recover = [&](Error cause) -> Result<size_t> {
    meta_.invalidate(entry.logical_path);
    constexpr int kMaxRecoveries = 3;
    if (recoveries >= kMaxRecoveries) return cause;
    const bool force_pfs = recoveries + 1 == kMaxRecoveries;
    HVAC_RETURN_IF_ERROR(recover_fd(vfd, entry, force_pfs));
    stall_charge(core::StallBucket::kRetry);
    HVAC_ASSIGN_OR_RETURN(size_t rest,
                          pread_attempt(vfd, out + total, count - total,
                                        offset + total, recoveries + 1));
    return total + rest;
  };

  // A small file is fetched whole by its first read — one round trip,
  // as when the open reply carried it inline — and every later read of
  // the fd is a local copy. Read-ahead never starts for it.
  const bool whole_file = entry.inline_data == nullptr && count > 0 &&
                          entry.size <= proto::kMaxInlineBytes;
  if (entry.inline_data != nullptr && count > 0) {
    // The fd already holds the whole file: no RPC at all.
    std::memcpy(out, entry.inline_data->data() + offset, count);
    total = count;
    stall_charge(core::StallBucket::kLocalHit);
  }
  while (total < count) {
    uint64_t chunk_offset = offset + total;
    uint32_t chunk = static_cast<uint32_t>(
        std::min<size_t>(count - total, options_.read_chunk_bytes));
    if (whole_file) {
      chunk_offset = 0;
      chunk = static_cast<uint32_t>(entry.size);
    }

    // Read-ahead hit: the chunk is already in flight (or landed); take
    // its bytes instead of a fresh round trip. The whole issue batch
    // came back as one scatter frame — this chunk is one extent of it.
    // A transport/parse failure or a short extent falls through to the
    // synchronous path below.
    if (options_.readahead_chunks > 0 && !whole_file) {
      if (auto pending =
              readahead_take(vfd, chunk_offset, chunk, entry.size)) {
        const bool was_ready =
            pending->data.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready;
        const Result<Bytes>& ready = pending->data.get();
        // A batch that landed before the application asked is a
        // genuine local hit; blocking on one still in flight is
        // read-ahead backpressure.
        stall_charge(was_ready ? core::StallBucket::kLocalHit
                               : core::StallBucket::kBackpressure);
        if (ready.ok()) {
          auto view = rpc::decode_scatter(ready->data(), ready->size());
          if (view.ok() && pending->extent_index < view->extents.size()) {
            const auto& ext = view->extents[pending->extent_index];
            if (ext.offset == chunk_offset && ext.length == chunk) {
              std::memcpy(out + total, ext.data, ext.length);
              total += ext.length;
              core::ReadAheadCounters::global().consumed.fetch_add(
                  1, std::memory_order_relaxed);
              {
                std::lock_guard<std::mutex> lock(stats_mutex_);
                ++stats_.readahead_hits;
              }
              readahead_advance(vfd, entry, chunk_offset, ext.length,
                                chunk);
              continue;
            }
          }
        }
      }
    }

    // Positional reads are idempotent: transient transport errors get
    // a bounded retry with backoff before recovery takes over. Every
    // read addresses the file by logical path with a single-extent
    // scatter request.
    WireWriter w;
    w.put_u8(1);  // by path
    w.put_string(entry.logical_path);
    w.put_u32(1);
    w.put_u64(chunk_offset);
    w.put_u32(chunk);
    Result<rpc::Payload> resp =
        channel(entry.server_index)
            .call_payload_idempotent(proto::kReadScatter, w.bytes());
    if (!resp.ok()) {
      // The failed attempt's wall time (and the recovery below) is
      // retry/fail-over penalty, whatever the eventual serving path.
      stall_charge(core::StallBucket::kRetry);
      const ErrorCode code = resp.error().code;
      if (code != ErrorCode::kUnavailable && code != ErrorCode::kTimeout) {
        return resp.error();
      }
      return recover(resp.error());
    }
    stall_charge(core::StallBucket::kRemoteRpc);
    Result<rpc::ScatterView> sv =
        rpc::decode_scatter(resp->data(), resp->size());
    if (!sv.ok() || sv->extents.size() != 1 ||
        sv->extents[0].offset != chunk_offset ||
        sv->extents[0].length > chunk) {
      return recover(Error(ErrorCode::kProtocol,
                           "bad scatter response for " + entry.logical_path));
    }
    // The request stops at EOF, so a short extent means the serving
    // copy was cut — an eviction race or an injected fault — and is
    // never handed to the application as a truncated sample.
    if (sv->extents[0].length < chunk) {
      return recover(Error(ErrorCode::kUnavailable,
                           "short scatter read mid-file for " +
                               entry.logical_path));
    }
    const uint8_t* data = sv->extents[0].data;
    if (whole_file) {
      auto bytes =
          std::make_shared<const std::vector<uint8_t>>(data, data + chunk);
      std::memcpy(out, bytes->data() + offset, count);
      total = count;
      fds_.attach_inline(vfd, std::move(bytes));
      break;
    }
    // Single copy: response buffer (pooled) -> caller's buffer.
    std::memcpy(out + total, data, chunk);
    total += chunk;
    readahead_advance(vfd, entry, chunk_offset, chunk, chunk);
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.reads;
  stats_.bytes_read += total;
  return total;
}

Result<size_t> HvacClient::read(int vfd, void* buf, size_t count) {
  // The fd table's logical offset is the single source of truth for
  // both remote and PFS-backed entries. (Kernel offset semantics on
  // the private pfs_fd would desynchronize when recover_fd swaps a
  // remote entry for a PFS one mid-stream: the recovering pread
  // delivers bytes without advancing the kernel offset.) The range is
  // reserved up front, so concurrent read()s on one vfd never deliver
  // the same bytes twice.
  HVAC_ASSIGN_OR_RETURN(core::FdTable::Range range,
                        fds_.reserve_read(vfd, count));
  Result<size_t> n = pread(vfd, buf, range.length, range.offset);
  const size_t done = n.ok() ? *n : 0;
  if (done < range.length) {
    // Short or failed read: give back the unread tail when no later
    // reader has reserved past it.
    (void)fds_.rewind_offset(vfd, range.offset + range.length,
                             range.offset + done);
  }
  return n;
}

Result<int64_t> HvacClient::lseek(int vfd, int64_t offset, int whence) {
  HVAC_ASSIGN_OR_RETURN(core::FdEntry entry, fds_.get(vfd));
  int64_t base = 0;
  switch (whence) {
    case SEEK_SET: base = 0; break;
    case SEEK_CUR: base = static_cast<int64_t>(entry.offset); break;
    case SEEK_END: base = static_cast<int64_t>(entry.size); break;
    default:
      return Error(ErrorCode::kInvalidArgument, "bad whence");
  }
  const int64_t target = base + offset;
  if (target < 0) {
    return Error(ErrorCode::kInvalidArgument, "negative seek");
  }
  HVAC_RETURN_IF_ERROR(fds_.set_offset(vfd, static_cast<uint64_t>(target)));
  return target;
}

Status HvacClient::close(int vfd) {
  trace::Span span("client.close");
  HVAC_ASSIGN_OR_RETURN(core::FdEntry entry, fds_.erase(vfd));
  readahead_drop(vfd);
  if (entry.fallback_pfs) {
    if (entry.writable && ::fsync(entry.pfs_fd) != 0) {
      const Error e = Error::from_errno(errno, "fsync(pfs)");
      ::close(entry.pfs_fd);
      return e;
    }
    if (::close(entry.pfs_fd) != 0) {
      return Error::from_errno(errno, "close(pfs)");
    }
    return Status::Ok();
  }
  if (entry.writable) {
    // close is a durability barrier on the write path: the server
    // commits the file (and drains it to the PFS at level "pfs")
    // before dropping the handle, so this failure IS surfaced.
    // kCapacity: the last barrier shed the file, which is whole and
    // synced on the PFS.
    const uint64_t fd_bytes =
        entry.write_fd ? entry.write_fd->unsynced_bytes.exchange(0) : 0;
    Result<Bytes> resp = channel(entry.server_index)
                             .call(proto::kWriteClose,
                                   barrier_request(entry.remote_fd, fd_bytes));
    if (!resp.ok() && resp.error().code != ErrorCode::kCapacity) {
      return resp.error();
    }
    return Status::Ok();
  }
  // Read fds hold no server-side state: closing one is local.
  return Status::Ok();
}

Result<uint64_t> HvacClient::fstat_size(int vfd) {
  // One table read and no offset writes, so it cannot race a read()
  // on the same vfd.
  HVAC_ASSIGN_OR_RETURN(core::FdEntry entry, fds_.get(vfd));
  return entry.size;
}

Result<int> HvacClient::access_mode(int vfd) {
  HVAC_ASSIGN_OR_RETURN(core::FdEntry entry, fds_.get(vfd));
  return entry.writable ? O_WRONLY : O_RDONLY;
}

// ---- checkpoint write path ------------------------------------------------

Result<int> HvacClient::open_write(const std::string& path, bool trunc) {
  trace::Span span("client.open_write");
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.opens;
  }
  HVAC_ASSIGN_OR_RETURN(std::string logical, logical_path(path));
  // A write invalidates whatever the read path remembered or cached
  // about this file.
  meta_.invalidate(logical);

  const uint32_t server = placement_.home(logical);
  WireWriter w;
  w.put_string(logical);
  w.put_u8(trunc ? 1 : 0);
  w.put_u8(1);  // takes_fd: a local home passes its named file
  Result<rpc::Payload> resp = channel(server).call_payload(
      proto::kWriteOpen, w.bytes(), /*take_fd=*/true);
  if (resp.ok()) {
    WireReader r(resp->data(), resp->size());
    HVAC_ASSIGN_OR_RETURN(uint64_t remote_fd, r.get_u64());
    HVAC_ASSIGN_OR_RETURN(uint8_t mode, r.get_u8());
    core::FdEntry entry;
    entry.logical_path = logical;
    entry.server_index = server;
    entry.remote_fd = remote_fd;
    entry.writable = true;
    if (rpc::Fd passed = resp->take_fd(); passed.valid()) {
      // Only a write-back handle's own file, open for writing only: any
      // other fd closes here and the open fails.
      struct stat st{};
      const int flags = ::fcntl(passed.get(), F_GETFL);
      if (mode != proto::kWriteBack || ::fstat(passed.get(), &st) != 0 ||
          !S_ISREG(st.st_mode) || flags < 0 ||
          (flags & O_ACCMODE) != O_WRONLY) {
        return Error(ErrorCode::kProtocol,
                     "kWriteOpen passed an fd that is not a write-only "
                     "file for " + logical);
      }
      entry.write_fd = std::make_shared<core::WriteFd>(passed.release());
    }
    const int vfd = fds_.insert(std::move(entry));
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.remote_opens;
    return vfd;
  }
  // Fail open on transport errors only: a real error from a healthy
  // server (bad path, a malformed reply etc.) is final. Mid-file writes
  // do NOT fail over (bytes already acked to a dead server would
  // silently vanish from the copy), so the choice of backing is made
  // once, here.
  if (resp.error().code != ErrorCode::kUnavailable &&
      resp.error().code != ErrorCode::kTimeout) {
    return resp.error();
  }
  if (!options_.allow_pfs_fallback) return resp.error();
  HVAC_LOG_INFO("write falling back to PFS for " << path);
  int flags = O_WRONLY | O_CREAT | O_CLOEXEC;
  if (trunc) flags |= O_TRUNC;
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) return Error::from_errno(errno, "open " + path);
  core::FdEntry entry;
  entry.logical_path = path;
  entry.fallback_pfs = true;
  entry.pfs_fd = fd;
  entry.writable = true;
  const int vfd = fds_.insert(std::move(entry));
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.fallback_write_opens;
  return vfd;
}

Result<size_t> HvacClient::pwrite(int vfd, const void* buf, size_t count,
                                  uint64_t offset) {
  trace::Span span("client.write", count);
  HVAC_ASSIGN_OR_RETURN(core::FdEntry entry, fds_.get(vfd));
  if (!entry.writable) {
    return Error(ErrorCode::kInvalidArgument, "fd not open for writing");
  }
  const auto* src = static_cast<const uint8_t*>(buf);
  size_t done = 0;
  if (entry.fallback_pfs) {
    HVAC_RETURN_IF_ERROR(
        pwrite_exact(entry.pfs_fd, src, count, offset, "pwrite(pfs)"));
    done = count;
  } else {
    if (entry.write_fd) {
      HVAC_ASSIGN_OR_RETURN(bool local,
                            pwrite_local(vfd, entry, src, count, offset));
      if (local) done = count;
    }
    // Chunk to the RPC frame cap. A chunk is idempotent (same bytes,
    // same offset), so transport retries are safe.
    while (!entry.write_fd && done < count) {
      const uint32_t chunk = static_cast<uint32_t>(std::min<uint64_t>(
          count - done, options_.read_chunk_bytes));
      WireWriter w;
      w.put_u64(entry.remote_fd);
      w.put_u64(offset + done);
      w.put_blob(src + done, chunk);
      HVAC_ASSIGN_OR_RETURN(
          Bytes resp,
          channel(entry.server_index).call_idempotent(proto::kWrite, w));
      WireReader r(resp);
      HVAC_ASSIGN_OR_RETURN(uint32_t written, r.get_u32());
      if (written == 0) break;
      done += written;
    }
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.writes;
  stats_.bytes_written += done;
  return done;
}

Result<size_t> HvacClient::write(int vfd, const void* buf, size_t count) {
  HVAC_ASSIGN_OR_RETURN(core::FdEntry entry, fds_.get(vfd));
  if (!entry.writable) {
    return Error(ErrorCode::kInvalidArgument, "fd not open for writing");
  }
  // Reserve [offset, offset+count) up front so concurrent write()s on
  // one vfd land at disjoint offsets (write(2)'s kernel-atomic offset
  // update); a read-pwrite-set sequence would let two threads write
  // the same range and lose an advance.
  HVAC_ASSIGN_OR_RETURN(uint64_t offset, fds_.reserve_offset(vfd, count));
  Result<size_t> n = pwrite(vfd, buf, count, offset);
  const size_t done = n.ok() ? *n : 0;
  if (done < count) {
    // Short or failed write: give back the unused tail of the
    // reservation when no later writer has built on top of it.
    (void)fds_.rewind_offset(vfd, offset + count, offset + done);
  }
  return n;
}

Result<bool> HvacClient::pwrite_local(int vfd, core::FdEntry& entry,
                                      const uint8_t* src, size_t count,
                                      uint64_t offset) {
  // The bytes go once, into the named file; the next barrier commits
  // them and charges the file to the store.
  Status s = pwrite_exact(entry.write_fd->fd, src, count, offset,
                          "pwrite(write-back file)");
  if (s.ok()) {
    const uint64_t unsynced = entry.write_fd->unsynced_bytes.fetch_add(
                                  count, std::memory_order_relaxed) +
                              count;
    if (unsynced >= kWriteFdBarrierBytes) {
      // A shed here takes these bytes to the PFS with the rest; any
      // other failure is the application's next fsync or close to see.
      (void)barrier(vfd, entry);
    }
    return true;
  }
  if (s.error().code != ErrorCode::kCapacity) return s.error();
  // The local disk is full: a barrier over budget sheds the handle, and
  // the write goes to the PFS by kWrite. A disk full under the budget
  // is the application's ENOSPC.
  HVAC_RETURN_IF_ERROR(barrier(vfd, entry));
  if (entry.write_fd) return s.error();
  return false;
}

Bytes HvacClient::barrier_request(uint64_t remote_fd, uint64_t fd_bytes) const {
  WireWriter w;
  w.put_u64(remote_fd);
  w.put_u8(options_.write_durability);
  w.put_u64(fd_bytes);
  return std::move(w).take();
}

Status HvacClient::barrier(int vfd, core::FdEntry& entry) {
  const uint64_t fd_bytes =
      entry.write_fd ? entry.write_fd->unsynced_bytes.exchange(0) : 0;
  // The barrier is idempotent — committing twice is harmless.
  Result<Bytes> resp = channel(entry.server_index)
                           .call_idempotent(proto::kFsync,
                                            barrier_request(entry.remote_fd,
                                                            fd_bytes));
  if (resp.ok()) return Status::Ok();
  if (resp.error().code == ErrorCode::kCapacity) {
    if (entry.write_fd) {
      entry.write_fd.reset();
      HVAC_RETURN_IF_ERROR(fds_.replace(vfd, entry));
    }
    return Status::Ok();
  }
  if (entry.write_fd && (resp.error().code == ErrorCode::kUnavailable ||
                         resp.error().code == ErrorCode::kTimeout)) {
    // The server may never have seen them: the next barrier reports
    // them again.
    entry.write_fd->unsynced_bytes.fetch_add(fd_bytes,
                                             std::memory_order_relaxed);
  }
  return resp.error();
}

Status HvacClient::fsync(int vfd) {
  trace::Span span("client.fsync");
  HVAC_ASSIGN_OR_RETURN(core::FdEntry entry, fds_.get(vfd));
  if (!entry.writable) {
    return Error(ErrorCode::kInvalidArgument, "fd not open for writing");
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.fsyncs;
  }
  if (entry.fallback_pfs) {
    if (::fsync(entry.pfs_fd) != 0) {
      return Error::from_errno(errno, "fsync(pfs)");
    }
    return Status::Ok();
  }
  return barrier(vfd, entry);
}

Result<uint64_t> HvacClient::stat_size(const std::string& path) {
  trace::Span span("client.stat");
  HVAC_RETURN_IF_ERROR(fault::check(fault::Site::kStat));
  HVAC_ASSIGN_OR_RETURN(std::string logical, logical_path(path));
  // Packed sample: the index is authoritative for the size.
  if (std::optional<PackedCatalog::Resolved> packed = packed_lookup(logical)) {
    return packed->length;
  }
  if (std::optional<MetaEntry> meta = meta_lookup(logical)) {
    return meta->size;
  }
  WireWriter w;
  w.put_string(logical);
  const uint32_t server = placement_.home(logical);
  // stat is idempotent: transport failures are retried with backoff
  // (bounded, breaker-gated) before the PFS fallback takes over.
  Result<Bytes> resp = channel(server).call_idempotent(proto::kStat, w);
  if (!resp.ok()) {
    meta_.invalidate(logical);
    if (options_.allow_pfs_fallback) {
      return storage::file_size(path);
    }
    return resp.error();
  }
  WireReader r(*resp);
  HVAC_ASSIGN_OR_RETURN(uint64_t size, r.get_u64());
  // Trailing cached flag: new servers append it; its absence (an old
  // server) just means we cannot vouch for a cached copy.
  auto cached = r.get_u8();
  MetaEntry entry;
  entry.size = size;
  entry.home = server;
  entry.cached = cached.ok() && *cached == 1;
  meta_.put(logical, entry);
  return size;
}

Status HvacClient::prefetch(const std::string& path) {
  HVAC_ASSIGN_OR_RETURN(std::string logical, logical_path(path));
  WireWriter w;
  w.put_u32(1);
  w.put_string(logical);
  HVAC_ASSIGN_OR_RETURN(
      Bytes resp,
      channel(placement_.home(logical)).call(proto::kPrefetchBatch, w));
  WireReader r(resp);
  HVAC_ASSIGN_OR_RETURN(uint32_t n, r.get_u32());
  HVAC_ASSIGN_OR_RETURN(uint8_t status, r.get_u8());
  if (n != 1 || status == proto::kPrefetchShed) {
    return Error(ErrorCode::kUnavailable, "prefetch shed: " + logical);
  }
  return Status::Ok();
}

Result<std::vector<uint8_t>> HvacClient::prefetch_batch_status(
    const std::vector<std::string>& logical_paths) {
  // Group by home server, then batch: one kPrefetchBatch call warms up
  // to kMaxPrefetchBatch files in a single round trip, and the batches
  // of different servers are in flight concurrently (Mercury-style
  // pipelining with far fewer frames than one call per file) over the
  // PERSISTENT async channels — the scheduler issues continuously, so
  // dialling per round would dominate.
  std::vector<uint8_t> statuses(logical_paths.size(),
                                proto::kPrefetchShed);
  std::unordered_map<uint32_t, std::vector<size_t>> by_server;
  for (size_t i = 0; i < logical_paths.size(); ++i) {
    by_server[placement_.home(logical_paths[i])].push_back(i);
  }
  struct Pending {
    std::future<Result<rpc::Bytes>> fut;
    std::vector<size_t> indices;  // into logical_paths / statuses
  };
  std::vector<Pending> pending;
  for (auto& [server, indices] : by_server) {
    for (size_t base = 0; base < indices.size();
         base += proto::kMaxPrefetchBatch) {
      const uint32_t n = static_cast<uint32_t>(std::min<size_t>(
          proto::kMaxPrefetchBatch, indices.size() - base));
      WireWriter w;
      w.put_u32(n);
      std::vector<size_t> sub(indices.begin() + base,
                              indices.begin() + base + n);
      for (const size_t idx : sub) w.put_string(logical_paths[idx]);
      pending.push_back(
          Pending{async_channel(server).call_async(proto::kPrefetchBatch,
                                                   w.bytes()),
                  std::move(sub)});
    }
  }
  for (Pending& p : pending) {
    Result<rpc::Bytes> resp = p.fut.get();
    // A dead server or open breaker reads as shed for the sub-batch:
    // retryable, never fatal (the demand path covers any sample the
    // warm-up misses).
    if (!resp.ok()) continue;
    WireReader r(*resp);
    auto n = r.get_u32();
    if (!n.ok() || *n != p.indices.size()) continue;
    for (const size_t idx : p.indices) {
      auto status = r.get_u8();
      if (!status.ok()) break;
      statuses[idx] = *status;
    }
  }
  return statuses;
}

Result<size_t> HvacClient::prefetch_many(
    const std::vector<std::string>& paths) {
  std::vector<std::string> remaining;
  remaining.reserve(paths.size());
  for (const auto& path : paths) {
    HVAC_ASSIGN_OR_RETURN(std::string logical, logical_path(path));
    remaining.push_back(std::move(logical));
  }
  // Shed answers mean the mover queue is full, not that the files are
  // unfetchable: back off and re-pace the shed tail a bounded number
  // of rounds instead of dropping warm-up on the floor.
  constexpr int kMaxRounds = 4;
  constexpr int kBackoffMs = 5;
  size_t warmed = 0;
  for (int round = 0; round < kMaxRounds && !remaining.empty(); ++round) {
    if (round > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(kBackoffMs * round));
    }
    HVAC_ASSIGN_OR_RETURN(std::vector<uint8_t> statuses,
                          prefetch_batch_status(remaining));
    std::vector<std::string> shed;
    for (size_t i = 0; i < remaining.size(); ++i) {
      if (statuses[i] == proto::kPrefetchCached) {
        ++warmed;
      } else if (statuses[i] == proto::kPrefetchShed) {
        shed.push_back(std::move(remaining[i]));
      }
    }
    remaining = std::move(shed);
  }
  return warmed;
}

ClientStats HvacClient::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

std::string stats_to_json(const ClientStats& s) {
  const BufferPool::Stats bp = BufferPool::global().stats();
  std::ostringstream o;
  o << "{\"opens\":" << s.opens << ",\"remote_opens\":" << s.remote_opens
    << ",\"fallback_opens\":" << s.fallback_opens
    << ",\"reads\":" << s.reads << ",\"bytes_read\":" << s.bytes_read
    << ",\"failovers\":" << s.failovers
    << ",\"writes\":" << s.writes
    << ",\"bytes_written\":" << s.bytes_written
    << ",\"fsyncs\":" << s.fsyncs
    << ",\"fallback_write_opens\":" << s.fallback_write_opens
    << ",\"passed_fd_opens\":" << s.passed_fd_opens
    << ",\"read_ahead\":{\"issued\":" << s.readahead_issued
    << ",\"consumed\":" << s.readahead_hits
    << ",\"wasted\":" << s.readahead_wasted << "}"
    << ",\"buffer_pool\":{\"leases\":" << bp.hits + bp.misses + bp.unpooled
    << ",\"pool_hits\":" << bp.hits
    << ",\"fallback_allocs\":" << bp.misses + bp.unpooled
    << ",\"recycled\":" << bp.recycled << ",\"dropped\":" << bp.dropped
    << "}";
  const core::MetaCacheCounters& mc = core::MetaCacheCounters::global();
  o << ",\"meta_cache\":{\"hits\":" << s.meta_hits
    << ",\"misses\":" << s.meta_misses
    << ",\"expired\":" << mc.expired.load(std::memory_order_relaxed)
    << ",\"invalidated\":"
    << mc.invalidated.load(std::memory_order_relaxed) << "}";
  const core::PrefetchCounters& pf = core::PrefetchCounters::global();
  const core::LatencySnapshot paced = pf.paced_delay.snapshot();
  o << ",\"prefetch\":{\"planned\":"
    << pf.planned.load(std::memory_order_relaxed)
    << ",\"issued\":" << pf.issued.load(std::memory_order_relaxed)
    << ",\"completed\":" << pf.completed.load(std::memory_order_relaxed)
    << ",\"shed\":" << pf.shed.load(std::memory_order_relaxed)
    << ",\"late\":" << pf.late.load(std::memory_order_relaxed)
    << ",\"hit_after_prefetch\":"
    << pf.hit_after.load(std::memory_order_relaxed)
    << ",\"paced_batches\":" << paced.count
    << ",\"paced_delay_total_ns\":" << paced.total_ns << "}";
  const rpc::ResilienceCounters& rc = rpc::ResilienceCounters::global();
  o << ",\"resilience\":{\"breaker_opens\":"
    << rc.breaker_opens.load(std::memory_order_relaxed)
    << ",\"breaker_closes\":"
    << rc.breaker_closes.load(std::memory_order_relaxed)
    << ",\"breaker_probes\":"
    << rc.breaker_probes.load(std::memory_order_relaxed)
    << ",\"breaker_shed\":"
    << rc.breaker_shed.load(std::memory_order_relaxed)
    << ",\"retries\":" << rc.retries.load(std::memory_order_relaxed)
    << ",\"deadline_misses\":"
    << rc.deadline_misses.load(std::memory_order_relaxed)
    << ",\"faults_injected\":" << fault::total_injected() << "}";
  // Per-epoch stall attribution plus the shim's independent wall-time
  // measurement of the same reads — the telemetry CI leg asserts the
  // bucket sums reconcile with the latter within tolerance.
  const core::StallCounters& sc = core::StallCounters::global();
  o << ",\"stall\":{\"shim_reads\":"
    << sc.shim_reads.load(std::memory_order_relaxed)
    << ",\"shim_read_wall_ns\":"
    << sc.shim_read_wall_ns.load(std::memory_order_relaxed)
    << ",\"epochs\":[";
  const std::vector<core::StallEpochRow> stall = sc.snapshot();
  for (size_t i = 0; i < stall.size(); ++i) {
    const core::StallEpochRow& e = stall[i];
    if (i > 0) o << ",";
    o << "{\"epoch\":" << e.epoch << ",\"reads\":" << e.reads
      << ",\"total_ns\":" << e.total_ns
      << ",\"local_hit_ns\":" << e.local_hit_ns
      << ",\"remote_rpc_ns\":" << e.remote_rpc_ns
      << ",\"pfs_wait_ns\":" << e.pfs_wait_ns
      << ",\"backpressure_ns\":" << e.backpressure_ns
      << ",\"retry_ns\":" << e.retry_ns << "}";
  }
  o << "]}}";
  return o.str();
}

}  // namespace hvac::client
