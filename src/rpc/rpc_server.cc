#include "rpc/rpc_server.h"

#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/buffer_pool.h"
#include "common/env.h"
#include "common/log.h"
#include "common/trace.h"
#include "rpc/health.h"

namespace hvac::rpc {

// One reactor: an epoll loop thread that owns a listener shard and
// every connection it accepted. All read-side state for a connection
// is touched only by its owning reactor thread; response writes (from
// pool workers or the reactor itself) serialize on the connection
// write lock — the only cross-thread synchronization on the data
// path.
struct RpcServer::Reactor {
  uint32_t id = 0;
  Fd listen_fd;  // TCP: SO_REUSEPORT shard; unix: reactor 0 only
  Fd alias_fd;   // TCP server's node-local alias: reactor 0 only
  Fd epoll_fd;
  Fd wake_fd;  // eventfd: stop/drain signal + fd-handoff doorbell
  std::thread thread;

  std::mutex conns_mutex;
  std::unordered_map<int, std::shared_ptr<Connection>> conns;

  // Unix-socket and alias connections: reactor 0 accepts and hands
  // raw fds here; the owner adopts them on its next wake.
  struct Handoff {
    int fd;
    bool local;  // accepted over the alias
  };
  std::mutex intake_mutex;
  std::vector<Handoff> intake;

  std::atomic<uint64_t> conns_accepted{0};
  std::atomic<uint64_t> local_conns{0};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> shed{0};
};

// Per-connection read state machine. Reads run only on the owning
// reactor thread; writes run on pool workers (or the reactor, for
// inline handlers) under write_mutex.
struct RpcServer::Connection {
  Connection(Fd socket, Reactor* owner) : fd(std::move(socket)),
                                          reactor(owner) {}

  Fd fd;
  Reactor* reactor;  // owning reactor (per-reactor accounting)
  bool takes_fds = false;  // see peer_takes_fds()
  std::mutex write_mutex;
  // Scratch pipe for the splice rung, created lazily on the first
  // extent-bearing response and reused for the connection's lifetime
  // (guarded by write_mutex like all response writes).
  Fd pipe_rd;
  Fd pipe_wr;
  // Requests dispatched but not yet answered (backpressure cap).
  std::atomic<uint32_t> inflight{0};

  // Read state: first kHeaderSize bytes, then (for HVC2 frames) the
  // trace context, then payload_len bytes.
  uint8_t header_buf[kHeaderSize];
  size_t header_got = 0;
  uint8_t trace_buf[kTraceContextSize];
  size_t trace_got = 0;
  bool in_trace = false;
  FrameHeader header;
  Bytes payload;
  size_t payload_got = 0;
  bool in_payload = false;
  bool split = false;  // this frame already waited for another event

  void reset_frame() {
    split = false;
    header_got = 0;
    trace_got = 0;
    in_trace = false;
    payload.clear();
    payload_got = 0;
    in_payload = false;
  }
};

namespace {

thread_local bool t_peer_takes_fds = false;

// An AF_UNIX peer of this process's euid or root: the peers a server
// may pass fds to.
bool trusted_unix_peer(int fd) {
  ucred peer{};
  socklen_t len = sizeof(peer);
  return ::getsockopt(fd, SOL_SOCKET, SO_PEERCRED, &peer, &len) == 0 &&
         (peer.uid == ::geteuid() || peer.uid == 0);
}

}  // namespace

bool peer_takes_fds() { return t_peer_takes_fds; }

RpcServer::RpcServer(RpcServerOptions options)
    : options_(std::move(options)) {
  // HVAC_MAX_FRAME_BYTES can tighten (never widen) the frame bound.
  const int64_t env_cap = env_int_or("HVAC_MAX_FRAME_BYTES", 0);
  if (env_cap > 0 &&
      static_cast<uint64_t>(env_cap) < options_.max_frame_bytes) {
    options_.max_frame_bytes = static_cast<uint32_t>(env_cap);
  }
  if (options_.max_frame_bytes > kMaxFrame) {
    options_.max_frame_bytes = static_cast<uint32_t>(kMaxFrame);
  }
  // Backpressure knobs: HVAC_MAX_INFLIGHT can tighten (never widen)
  // the per-connection in-flight cap.
  const int64_t env_inflight = env_int_or("HVAC_MAX_INFLIGHT", 0);
  if (env_inflight > 0 &&
      (options_.max_inflight_per_conn == 0 ||
       static_cast<uint64_t>(env_inflight) <
           options_.max_inflight_per_conn)) {
    options_.max_inflight_per_conn = static_cast<uint32_t>(env_inflight);
  }
  const int64_t env_retry = env_int_or("HVAC_SHED_RETRY_AFTER_MS", 0);
  if (env_retry > 0) {
    options_.shed_retry_after_ms = static_cast<uint32_t>(env_retry);
  }
}

RpcServer::~RpcServer() { stop(); }

void RpcServer::register_handler(uint16_t opcode, Handler handler,
                                 DispatchHint hint) {
  // Adapt onto the payload-handler map: a plain Bytes result becomes
  // an owned payload, so the dispatch path is uniform.
  register_payload_handler(
      opcode,
      [handler = std::move(handler)](const Bytes& request) -> Result<Payload> {
        Result<Bytes> result = handler(request);
        if (!result.ok()) return result.error();
        return Payload(std::move(result).value());
      },
      hint);
}

void RpcServer::register_payload_handler(uint16_t opcode,
                                         PayloadHandler handler,
                                         DispatchHint hint) {
  handlers_[opcode] = HandlerEntry{std::move(handler), hint, nullptr};
}

void RpcServer::register_payload_handler(uint16_t opcode,
                                         PayloadHandler pooled,
                                         ReactorProbe on_reactor) {
  handlers_[opcode] = HandlerEntry{std::move(pooled), DispatchHint::kPooled,
                                   std::move(on_reactor)};
}

size_t RpcServer::resolve_reactor_count() const {
  size_t count = options_.reactors;
  if (count == 0) {
    const int64_t env = env_int_or("HVAC_REACTORS", 0);
    if (env > 0) {
      count = static_cast<size_t>(env);
    } else {
      const unsigned cores = std::thread::hardware_concurrency();
      count = std::min<size_t>(cores == 0 ? 1 : cores, 8);
    }
  }
  return std::clamp<size_t>(count, 1, 64);
}

Status RpcServer::setup_reactor(Reactor& r) {
  const int efd = ::epoll_create1(EPOLL_CLOEXEC);
  if (efd < 0) return Error::from_errno(errno, "epoll_create1");
  r.epoll_fd = Fd(efd);

  const int wfd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wfd < 0) return Error::from_errno(errno, "eventfd");
  r.wake_fd = Fd(wfd);

  for (const Fd* fd : {&r.listen_fd, &r.alias_fd, &r.wake_fd}) {
    if (!fd->valid()) continue;
    if (fd != &r.wake_fd) {
      HVAC_RETURN_IF_ERROR(set_nonblocking(fd->get(), true));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd->get();
    if (::epoll_ctl(r.epoll_fd.get(), EPOLL_CTL_ADD, fd->get(), &ev) != 0) {
      return Error::from_errno(errno, "epoll_ctl(add)");
    }
  }
  return Status::Ok();
}

Status RpcServer::start() {
  const size_t count = resolve_reactor_count();
  const Endpoint requested{options_.bind_address};
  reactors_.clear();
  for (size_t i = 0; i < count; ++i) {
    auto r = std::make_unique<Reactor>();
    r->id = static_cast<uint32_t>(i);
    reactors_.push_back(std::move(r));
  }

  if (requested.is_unix()) {
    // One listener on reactor 0; accepted fds are round-robined to
    // the other reactors over their intake queues (SO_REUSEPORT does
    // not shard unix stream sockets usefully).
    HVAC_ASSIGN_OR_RETURN(reactors_[0]->listen_fd,
                          listen_on(requested, &bound_));
  } else {
    // TCP: every reactor binds the same port with SO_REUSEPORT; the
    // kernel shards incoming connections across the listeners. The
    // first bind resolves port 0, the rest join the learned port.
    HVAC_ASSIGN_OR_RETURN(
        reactors_[0]->listen_fd,
        listen_on(requested, &bound_, /*reuseport=*/count > 1));
    for (size_t i = 1; i < count; ++i) {
      HVAC_ASSIGN_OR_RETURN(reactors_[i]->listen_fd,
                            listen_on(bound_, nullptr, /*reuseport=*/true));
    }
    // Same-host clients dial the alias first (DESIGN.md §19). Losing
    // the name to another socket costs speed, not service.
    auto alias = listen_on_alias(bound_);
    if (alias.ok()) {
      reactors_[0]->alias_fd = std::move(alias).value();
    } else {
      HVAC_LOG_WARN("serving TCP only: " << alias.error().to_string());
    }
  }
  for (auto& r : reactors_) HVAC_RETURN_IF_ERROR(setup_reactor(*r));

  zerocopy_mode_ = resolve_zerocopy_mode();

  WorkStealingPool::Options pool_options;
  pool_options.shards = count;
  pool_options.workers_per_shard =
      std::max<size_t>(1, (options_.handler_threads + count - 1) / count);
  pool_options.steal_enabled = env_bool_or("HVAC_STEAL", true);
  pool_options.steal_throttle = env_bool_or("HVAC_STEAL_THROTTLE", true);
  if (count > 1) {
    // Workers recycle response buffers through their home reactor's
    // arena, matching the reactor threads, so hit-path buffers never
    // bounce between per-core free lists.
    pool_options.worker_init = [](size_t shard) {
      BufferPool::set_thread_arena(&BufferPool::arena(shard));
    };
  }
  pool_ = std::make_unique<WorkStealingPool>(pool_options);

  running_.store(true, std::memory_order_release);
  for (auto& r : reactors_) {
    Reactor* rp = r.get();
    rp->thread = std::thread([this, rp] { reactor_loop(*rp); });
  }
  HVAC_LOG_INFO("rpc server listening on "
                << bound_.address
                << (reactors_[0]->alias_fd.valid()
                        ? " and " + local_alias_name(bound_)
                        : std::string())
                << " (reactors=" << count << ", zerocopy="
                << zerocopy_mode_name(zerocopy_mode_) << ")");
  return Status::Ok();
}

void RpcServer::wake(Reactor& r) {
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(r.wake_fd.get(), &one, sizeof(one));
}

void RpcServer::stop() {
  const bool was_running =
      running_.exchange(false, std::memory_order_acq_rel);
  if (was_running) {
    for (auto& r : reactors_) wake(*r);
  }
  for (auto& r : reactors_) {
    if (r->thread.joinable()) r->thread.join();
  }
  // Pool tasks may still reference connections/reactors: drain the
  // workers before tearing either down.
  if (pool_) pool_->shutdown();
  for (auto& r : reactors_) {
    {
      std::lock_guard<std::mutex> lock(r->intake_mutex);
      for (const Reactor::Handoff& h : r->intake) ::close(h.fd);
      r->intake.clear();
    }
    {
      std::lock_guard<std::mutex> lock(r->conns_mutex);
      r->conns.clear();
    }
    r->listen_fd.reset();
    r->alias_fd.reset();
  }
  if (bound_.is_unix()) ::unlink(bound_.unix_path().c_str());
}

void RpcServer::drain(int timeout_ms) {
  if (!running_.load(std::memory_order_acquire)) return;
  if (!draining_.exchange(true, std::memory_order_acq_rel)) {
    ResilienceCounters::global().drains.fetch_add(1,
                                                  std::memory_order_relaxed);
    // Each reactor owns its listener; wake them all so every one
    // deregisters and closes its shard (no new connections anywhere).
    for (auto& r : reactors_) wake(*r);
  }
  const int64_t deadline = steady_now_ms() + std::max(timeout_ms, 0);
  while (inflight_.load(std::memory_order_acquire) > 0 &&
         steady_now_ms() < deadline) {
    timespec ts{0, 1'000'000};  // 1 ms
    ::nanosleep(&ts, nullptr);
  }
}

std::vector<RpcServer::ReactorStats> RpcServer::reactor_stats() const {
  std::vector<ReactorStats> out;
  out.reserve(reactors_.size());
  for (const auto& r : reactors_) {
    ReactorStats s;
    s.conns = r->conns_accepted.load(std::memory_order_relaxed);
    s.local_conns = r->local_conns.load(std::memory_order_relaxed);
    s.requests = r->requests.load(std::memory_order_relaxed);
    s.steals = pool_ ? pool_->steals(r->id) : 0;
    s.steal_backoffs = pool_ ? pool_->steal_backoffs(r->id) : 0;
    s.shed = r->shed.load(std::memory_order_relaxed);
    out.push_back(s);
  }
  return out;
}

void RpcServer::adopt_connection(Reactor& r, int cfd, bool local) {
  auto conn = std::make_shared<Connection>(Fd(cfd), &r);
  if (local || bound_.is_unix()) {
    conn->takes_fds = trusted_unix_peer(cfd);
  } else {
    set_nodelay(cfd);
  }
  {
    std::lock_guard<std::mutex> lock(r.conns_mutex);
    r.conns[cfd] = conn;
  }
  epoll_event cev{};
  cev.events = EPOLLIN;
  cev.data.fd = cfd;
  if (::epoll_ctl(r.epoll_fd.get(), EPOLL_CTL_ADD, cfd, &cev) != 0) {
    // Registration failed: without it the connection would sit in
    // conns forever, invisible to the loop. Drop it now.
    HVAC_LOG_WARN("epoll_ctl(add conn): " << std::strerror(errno));
    std::lock_guard<std::mutex> lock(r.conns_mutex);
    r.conns.erase(cfd);
    return;
  }
  r.conns_accepted.fetch_add(1, std::memory_order_relaxed);
  if (local) r.local_conns.fetch_add(1, std::memory_order_relaxed);
}

namespace {

// Opt-in reactor->CPU pinning (HVAC_REACTOR_PIN=1): reactor i sticks
// to the i-th CPU of the process's *allowed* set, so the pinning
// respects cgroup/cpuset restrictions (a batch scheduler that granted
// 4 of 128 cores must see those 4 used, not EINVAL). Any failure is a
// warn-and-continue: pinning is a locality optimization, never a
// correctness requirement.
void maybe_pin_reactor(uint32_t reactor_id) {
  if (!env_bool_or("HVAC_REACTOR_PIN", false)) return;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    HVAC_LOG_WARN("reactor pin: sched_getaffinity: "
                  << std::strerror(errno));
    return;
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.empty()) return;
  const int target = cpus[reactor_id % cpus.size()];
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(target, &one);
  const int rc =
      ::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one);
  if (rc != 0) {
    HVAC_LOG_WARN("reactor pin: pthread_setaffinity_np(cpu " << target
                  << "): " << std::strerror(rc));
    return;
  }
  HVAC_LOG_DEBUG("reactor " << reactor_id << " pinned to cpu " << target);
}

}  // namespace

void RpcServer::reactor_loop(Reactor& r) {
  maybe_pin_reactor(r.id);
  const size_t count = reactors_.size();
  if (count > 1) {
    // Reactor-private buffer arena: inline handlers allocate and
    // recycle through it without touching the global pool's mutex.
    BufferPool::set_thread_arena(&BufferPool::arena(r.id));
  }
  // Accepts every pending connection on `listen_fd`. With `handoff`
  // they are round-robined across reactors; remote ones travel as raw
  // fds through the owner's intake queue.
  auto accept_all = [&](int listen_fd, bool handoff, bool local) {
    for (;;) {
      const int cfd = ::accept4(listen_fd, nullptr, nullptr,
                                SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (cfd < 0) {
        if (errno == EINTR) continue;  // signal, not "done accepting"
        return;  // EAGAIN or error: done accepting
      }
      if (handoff && count > 1) {
        const size_t target =
            next_reactor_.fetch_add(1, std::memory_order_relaxed) % count;
        if (target != r.id) {
          Reactor& owner = *reactors_[target];
          {
            std::lock_guard<std::mutex> lock(owner.intake_mutex);
            owner.intake.push_back({cfd, local});
          }
          wake(owner);
          continue;
        }
      }
      adopt_connection(r, cfd, local);
    }
  };
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (running_.load(std::memory_order_acquire)) {
    if (draining_.load(std::memory_order_acquire)) {
      // Drain: stop accepting. Deregister + close here (the thread
      // that polls the fds) so no event for them can be in flight.
      for (Fd* listener : {&r.listen_fd, &r.alias_fd}) {
        if (!listener->valid()) continue;
        ::epoll_ctl(r.epoll_fd.get(), EPOLL_CTL_DEL, listener->get(),
                    nullptr);
        listener->reset();
      }
    }
    const int n = ::epoll_wait(r.epoll_fd.get(), events, kMaxEvents, 500);
    if (n < 0) {
      if (errno == EINTR) continue;
      HVAC_LOG_ERROR("epoll_wait: " << std::strerror(errno));
      return;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == r.wake_fd.get()) {
        // Drain the eventfd counter so it does not stay readable and
        // spin the loop; stop() still breaks the loop via running_.
        uint64_t wcount = 0;
        [[maybe_unused]] ssize_t wr =
            ::read(r.wake_fd.get(), &wcount, sizeof(wcount));
        // Adopt any connections handed off by reactor 0.
        std::vector<Reactor::Handoff> handed;
        {
          std::lock_guard<std::mutex> lock(r.intake_mutex);
          handed.swap(r.intake);
        }
        for (const Reactor::Handoff& h : handed) {
          if (draining_.load(std::memory_order_acquire)) {
            ::close(h.fd);
            continue;
          }
          adopt_connection(r, h.fd, h.local);
        }
        continue;
      }
      if (r.listen_fd.valid() && fd == r.listen_fd.get()) {
        // SO_REUSEPORT does not shard unix stream sockets usefully:
        // reactor 0 spreads them itself.
        accept_all(fd, /*handoff=*/bound_.is_unix(), /*local=*/false);
        continue;
      }
      if (r.alias_fd.valid() && fd == r.alias_fd.get()) {
        accept_all(fd, /*handoff=*/true, /*local=*/true);
        continue;
      }
      std::shared_ptr<Connection> conn;
      {
        std::lock_guard<std::mutex> lock(r.conns_mutex);
        auto it = r.conns.find(fd);
        if (it != r.conns.end()) conn = it->second;
      }
      if (conn) handle_readable(r, conn);
    }
  }
}

void RpcServer::handle_readable(Reactor& r,
                                const std::shared_ptr<Connection>& conn) {
  // Drain everything available without blocking; a single readable
  // event may carry several pipelined requests. A frame cut off at
  // EAGAIN waits for another readiness event: count each such frame
  // once.
  auto await_more = [&] {
    const bool mid_frame =
        conn->header_got > 0 || conn->in_trace || conn->in_payload;
    if (mid_frame && !conn->split) {
      conn->split = true;
      split_frames_.fetch_add(1, std::memory_order_relaxed);
    }
  };
  for (;;) {
    if (!conn->in_payload && !conn->in_trace) {
      const ssize_t n =
          ::recv(conn->fd.get(), conn->header_buf + conn->header_got,
                 kHeaderSize - conn->header_got, MSG_DONTWAIT);
      if (n == 0) {
        drop_connection(r, conn->fd.get());
        return;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          await_more();
          return;
        }
        drop_connection(r, conn->fd.get());
        return;
      }
      conn->header_got += static_cast<size_t>(n);
      if (conn->header_got < kHeaderSize) continue;
      auto header = decode_header(conn->header_buf, kHeaderSize);
      if (!header.ok()) {
        HVAC_LOG_WARN("dropping connection: " << header.error().to_string());
        drop_connection(r, conn->fd.get());
        return;
      }
      if (header->payload_len > options_.max_frame_bytes) {
        // A corrupt or hostile header must not size a buffer: reject
        // before the resize and cut the connection.
        HVAC_LOG_WARN("dropping connection: frame of "
                      << header->payload_len << " bytes exceeds bound "
                      << options_.max_frame_bytes);
        drop_connection(r, conn->fd.get());
        return;
      }
      conn->header = *header;
      if (conn->header.has_trace) {
        // HVC2: the trace context sits between header and payload.
        conn->trace_got = 0;
        conn->in_trace = true;
      } else {
        conn->payload.resize(conn->header.payload_len);
        conn->payload_got = 0;
        conn->in_payload = true;
        if (conn->header.payload_len == 0) {
          Bytes payload;
          FrameHeader h = conn->header;
          conn->reset_frame();
          dispatch(conn, h, std::move(payload));
          continue;
        }
      }
    }
    if (conn->in_trace) {
      const ssize_t n =
          ::recv(conn->fd.get(), conn->trace_buf + conn->trace_got,
                 kTraceContextSize - conn->trace_got, MSG_DONTWAIT);
      if (n == 0) {
        drop_connection(r, conn->fd.get());
        return;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          await_more();
          return;
        }
        drop_connection(r, conn->fd.get());
        return;
      }
      conn->trace_got += static_cast<size_t>(n);
      if (conn->trace_got < kTraceContextSize) continue;
      if (!decode_trace_context(conn->header, conn->trace_buf,
                                kTraceContextSize)
               .ok()) {
        drop_connection(r, conn->fd.get());
        return;
      }
      conn->in_trace = false;
      conn->payload.resize(conn->header.payload_len);
      conn->payload_got = 0;
      conn->in_payload = true;
      if (conn->header.payload_len == 0) {
        Bytes payload;
        FrameHeader h = conn->header;
        conn->reset_frame();
        dispatch(conn, h, std::move(payload));
        continue;
      }
    }
    const size_t want = conn->payload.size() - conn->payload_got;
    const ssize_t n =
        ::recv(conn->fd.get(), conn->payload.data() + conn->payload_got,
               want, MSG_DONTWAIT);
    if (n == 0) {
      drop_connection(r, conn->fd.get());
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        await_more();
        return;
      }
      drop_connection(r, conn->fd.get());
      return;
    }
    conn->payload_got += static_cast<size_t>(n);
    if (conn->payload_got == conn->payload.size()) {
      FrameHeader h = conn->header;
      Bytes payload = std::move(conn->payload);
      conn->reset_frame();
      dispatch(conn, h, std::move(payload));
    }
  }
}

void RpcServer::shed_request(const std::shared_ptr<Connection>& conn,
                             const FrameHeader& header,
                             const std::string& reason) {
  requests_shed_.fetch_add(1, std::memory_order_relaxed);
  conn->reactor->shed.fetch_add(1, std::memory_order_relaxed);
  ResilienceCounters::global().server_shed.fetch_add(
      1, std::memory_order_relaxed);
  FrameHeader resp;
  resp.request_id = header.request_id;
  resp.opcode = header.opcode;
  resp.kind = FrameKind::kResponse;
  resp.status = ErrorCode::kUnavailable;
  WireWriter w;
  w.put_string(reason + "; retry_after_ms=" +
               std::to_string(options_.shed_retry_after_ms));
  // Retry hint as a structured trailer too (clients that only read
  // the message string skip it by length).
  w.put_u32(options_.shed_retry_after_ms);
  const Bytes body = std::move(w).take();
  resp.payload_len = static_cast<uint32_t>(body.size());
  uint8_t hdr[kMaxHeaderSize];
  encode_header(resp, hdr);
  iovec iov[2];
  iov[0].iov_base = hdr;
  iov[0].iov_len = kHeaderSize;
  iov[1].iov_base = const_cast<uint8_t*>(body.data());
  iov[1].iov_len = body.size();
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  if (!send_vectored(conn->fd.get(), iov, 2).ok()) {
    HVAC_LOG_DEBUG("shed response write failed; peer likely gone");
  }
}

Status RpcServer::write_response(const std::shared_ptr<Connection>& conn,
                                 FrameHeader resp, const Payload& body) {
  trace::Span span("server.send", body.total_size());
  uint8_t hdr[kMaxHeaderSize];
  iovec iov[3];
  std::lock_guard<std::mutex> lock(conn->write_mutex);

  if (!body.has_extents()) {
    encode_header(resp, hdr);
    // Header + body leave in one gathered syscall; for a pooled body
    // the bytes go kernel-to-socket with no intermediate copy at all.
    iov[0].iov_base = hdr;
    iov[0].iov_len = kHeaderSize;
    iov[1].iov_base = const_cast<uint8_t*>(body.data());
    iov[1].iov_len = body.size();
    return send_vectored(conn->fd.get(), iov, body.size() == 0 ? 1 : 2,
                         conn->takes_fds ? body.fd() : -1);
  }

  ZeroCopyMode mode = zerocopy_mode_;
  if (mode == ZeroCopyMode::kSplice && !conn->pipe_rd.valid()) {
    int pfd[2] = {-1, -1};
    if (::pipe2(pfd, O_CLOEXEC) == 0) {
      conn->pipe_rd = Fd(pfd[0]);
      conn->pipe_wr = Fd(pfd[1]);
    } else {
      // Out of fds for the scratch pipe: sendfile needs none and works
      // wherever splice does on this kernel.
      mode = ZeroCopyMode::kSendfile;
    }
  }

  if (mode == ZeroCopyMode::kOff) {
    // Pooled fallback: stage the extent bytes in user space, then one
    // gathered send — same syscall shape as the extent-free path.
    auto& zc = ZeroCopyCounters::global();
    Bytes staged(body.total_size() - body.size());
    size_t at = 0;
    for (const auto& e : body.extents()) {
      size_t got = 0;
      while (got < e.length) {
        const ssize_t n =
            ::pread(e.fd, staged.data() + at + got, e.length - got,
                    static_cast<off_t>(e.offset + got));
        if (n < 0) {
          if (errno == EINTR) continue;
          return Error::from_errno(errno, "pread(extent fallback)");
        }
        if (n == 0) {
          return Error(ErrorCode::kProtocol, "extent eof in fallback");
        }
        got += static_cast<size_t>(n);
      }
      at += e.length;
      zc.fallback_sends.fetch_add(1, std::memory_order_relaxed);
    }
    encode_header(resp, hdr);
    iov[0].iov_base = hdr;
    iov[0].iov_len = kHeaderSize;
    iov[1].iov_base = const_cast<uint8_t*>(body.data());
    iov[1].iov_len = body.size();
    iov[2].iov_base = staged.data();
    iov[2].iov_len = staged.size();
    return send_vectored(conn->fd.get(), iov, staged.empty() ? 2 : 3);
  }

  // Zero-copy rung: cork the header + memory head with MSG_MORE, then
  // kernel-copy each extent; the last transfer flushes the cork. When
  // every extent is empty nothing would follow to flush it, so send
  // uncorked instead of stalling the frame in the kernel.
  uint64_t extent_bytes = 0;
  for (const auto& e : body.extents()) extent_bytes += e.length;
  encode_header(resp, hdr);
  iov[0].iov_base = hdr;
  iov[0].iov_len = kHeaderSize;
  iov[1].iov_base = const_cast<uint8_t*>(body.data());
  iov[1].iov_len = body.size();
  const int head_cnt = body.size() == 0 ? 1 : 2;
  HVAC_RETURN_IF_ERROR(
      extent_bytes > 0 ? send_vectored_more(conn->fd.get(), iov, head_cnt)
                       : send_vectored(conn->fd.get(), iov, head_cnt));
  for (const auto& e : body.extents()) {
    if (e.length == 0) continue;
    if (mode == ZeroCopyMode::kSendfile) {
      HVAC_RETURN_IF_ERROR(
          sendfile_exact(conn->fd.get(), e.fd, e.offset, e.length));
    } else {
      HVAC_RETURN_IF_ERROR(splice_exact(conn->fd.get(), e.fd, e.offset,
                                        e.length, conn->pipe_rd.get(),
                                        conn->pipe_wr.get()));
    }
  }
  return Status::Ok();
}

bool RpcServer::run_request(const std::shared_ptr<Connection>& conn,
                            const FrameHeader& header, const Bytes& payload,
                            uint64_t enqueue_ns, bool probe) {
  const uint32_t reactor_id = conn->reactor->id;
  // Adopt the caller's context (no-op for untraced frames) and wrap
  // the handler + send in server.dispatch; the pool wait becomes its
  // own server.queue span — zero-length for inline dispatch, where
  // the handler runs on the reactor with no queue. Both spans carry
  // the reactor id so a timeline groups by core: server.queue's arg
  // is the id itself, server.dispatch packs it above the opcode.
  trace::ScopedContext adopt(header.trace);
  const bool traced_queue = enqueue_ns != 0 && header.has_trace;
  const uint64_t dispatch_ns = traced_queue ? trace::now_ns() : 0;
  {
    trace::Span dspan("server.dispatch",
                      (static_cast<uint64_t>(reactor_id) << 32) |
                          header.opcode);
    std::optional<Result<Payload>> answer =
        [&]() -> std::optional<Result<Payload>> {
      auto it = handlers_.find(header.opcode);
      if (it == handlers_.end()) {
        return Result<Payload>(Error(
            ErrorCode::kUnimplemented,
            "no handler for opcode " + std::to_string(header.opcode)));
      }
      t_peer_takes_fds = conn->takes_fds;
      std::optional<Result<Payload>> out =
          probe ? it->second.probe(payload) : it->second.fn(payload);
      t_peer_takes_fds = false;
      return out;
    }();
    if (!answer.has_value()) {
      // Declined: the pooled run records the request's spans.
      dspan.discard();
      return false;
    }
    Result<Payload>& result = *answer;

    FrameHeader resp;
    resp.request_id = header.request_id;
    resp.opcode = header.opcode;
    resp.kind = FrameKind::kResponse;
    Payload body;
    if (result.ok()) {
      resp.status = ErrorCode::kOk;
      body = std::move(result).value();
    } else {
      resp.status = result.error().code;
      WireWriter w;
      w.put_string(result.error().message);
      body = Payload(std::move(w).take());
    }
    resp.payload_len = static_cast<uint32_t>(body.total_size());

    // Count before the write so a client that has already seen the
    // response also sees the counter (tests rely on this ordering).
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    conn->reactor->requests.fetch_add(1, std::memory_order_relaxed);
    if (Status ws = write_response(conn, resp, body); !ws.ok()) {
      // The header may already be on the wire with the payload short:
      // nothing valid can follow, so shut the socket down and let the
      // owning reactor reap the connection (it owns drop_connection).
      HVAC_LOG_DEBUG("response write failed: " << ws.error().to_string());
      ::shutdown(conn->fd.get(), SHUT_RDWR);
    }
  }
  // Recorded once the request is answered, beside server.dispatch, so
  // a declined probe's re-queue yields one queue span, not two.
  if (traced_queue) {
    trace::emit("server.queue", enqueue_ns, dispatch_ns, reactor_id);
  }
  if (draining_.load(std::memory_order_acquire)) {
    ResilienceCounters::global().drained_requests.fetch_add(
        1, std::memory_order_relaxed);
  }
  conn->inflight.fetch_sub(1, std::memory_order_relaxed);
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  return true;
}

void RpcServer::dispatch(const std::shared_ptr<Connection>& conn,
                         FrameHeader header, Bytes payload) {
  if (header.kind != FrameKind::kRequest) {
    HVAC_LOG_WARN("ignoring non-request frame");
    return;
  }
  // Backpressure, decided before the request can queue on the pool:
  // during a drain every new request is shed (in-flight ones finish);
  // past the per-connection cap the client is told to back off
  // instead of deepening an unbounded queue.
  if (draining_.load(std::memory_order_acquire)) {
    shed_request(conn, header, "server draining");
    return;
  }
  if (options_.max_inflight_per_conn > 0 &&
      conn->inflight.load(std::memory_order_relaxed) >=
          options_.max_inflight_per_conn) {
    shed_request(conn, header, "server saturated");
    return;
  }
  conn->inflight.fetch_add(1, std::memory_order_relaxed);
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  const uint64_t enqueue_ns = trace::enabled() ? trace::now_ns() : 0;

  auto hint = DispatchHint::kPooled;
  bool has_probe = false;
  if (auto it = handlers_.find(header.opcode); it != handlers_.end()) {
    hint = it->second.hint;
    has_probe = static_cast<bool>(it->second.probe);
  }
  if (hint == DispatchHint::kInline) {
    // Fast path: run on the owning reactor, no queue, no wake, no
    // cross-core handoff. The handler promised not to block.
    run_request(conn, header, payload, enqueue_ns);
    return;
  }
  // Inline-first: the probe answers hits here; what it declines falls
  // through to the pool below, still counted in flight once.
  if (has_probe &&
      run_request(conn, header, payload, enqueue_ns, /*probe=*/true)) {
    return;
  }

  auto work = [this, conn, header, enqueue_ns,
               payload = std::move(payload)]() {
    run_request(conn, header, payload, enqueue_ns);
  };
  if (Status s = pool_->submit(conn->reactor->id, std::move(work)); !s.ok()) {
    conn->inflight.fetch_sub(1, std::memory_order_relaxed);
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    if (s.error().code == ErrorCode::kCapacity) {
      // Shard (and steal victims) saturated: shed with retry_after
      // instead of queueing unboundedly — same contract as the
      // per-connection cap.
      shed_request(conn, header, "dispatch queue full");
    } else {
      HVAC_LOG_DEBUG("dropping request during shutdown");
    }
  }
}

void RpcServer::drop_connection(Reactor& r, int fd) {
  std::lock_guard<std::mutex> lock(r.conns_mutex);
  ::epoll_ctl(r.epoll_fd.get(), EPOLL_CTL_DEL, fd, nullptr);
  r.conns.erase(fd);  // Connection destructor closes the socket
}

}  // namespace hvac::rpc
