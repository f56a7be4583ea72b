#include "rpc/rpc_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <mutex>

#include "common/env.h"
#include "common/log.h"
#include "common/trace.h"
#include "rpc/health.h"

namespace hvac::rpc {

// Per-connection read state. Reads run only on the reactor thread;
// writes run on pool workers (or the reactor, for inline handlers)
// under write_mutex — the only cross-thread synchronization on the
// data path.
struct RpcServer::Connection {
  explicit Connection(Fd socket) : fd(std::move(socket)) {}

  // Requests of up to this many bytes, headers included, are parsed
  // out of the receive buffer; a larger payload gets its own.
  static constexpr size_t kRecvBytes = 8192;

  Fd fd;
  bool takes_fds = false;  // see peer_takes_fds()
  std::mutex write_mutex;
  // Requests dispatched but not yet answered (backpressure cap).
  std::atomic<uint32_t> inflight{0};

  // Received bytes not yet parsed sit at [start, end) of `buf`.
  std::array<uint8_t, kRecvBytes> buf{};
  size_t start = 0;
  size_t end = 0;
  // A frame too large for `buf`: its header and its own payload
  // buffer, of which payload_got bytes have arrived; the rest is
  // received straight into it.
  FrameHeader header;
  Bytes payload;
  size_t payload_got = 0;
  bool in_payload = false;
  bool split = false;  // this frame already waited for another event
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

Status RpcServer::setup_epoll() {
  const int efd = ::epoll_create1(EPOLL_CLOEXEC);
  if (efd < 0) return Error::from_errno(errno, "epoll_create1");
  epoll_fd_ = Fd(efd);

  const int wfd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wfd < 0) return Error::from_errno(errno, "eventfd");
  wake_fd_ = Fd(wfd);

  for (const Fd* fd : {&listen_fd_, &alias_fd_, &wake_fd_}) {
    if (!fd->valid()) continue;
    if (fd != &wake_fd_) {
      HVAC_RETURN_IF_ERROR(set_nonblocking(fd->get(), true));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd->get();
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd->get(), &ev) != 0) {
      return Error::from_errno(errno, "epoll_ctl(add)");
    }
  }
  return Status::Ok();
}

Status RpcServer::start() {
  const Endpoint requested{options_.bind_address};
  HVAC_ASSIGN_OR_RETURN(listen_fd_, listen_on(requested, &bound_));
  if (!requested.is_unix()) {
    // Same-host clients dial the alias first (DESIGN.md §19). Losing
    // the name to another socket costs speed, not service.
    auto alias = listen_on_alias(bound_);
    if (alias.ok()) {
      alias_fd_ = std::move(alias).value();
    } else {
      HVAC_LOG_WARN("serving TCP only: " << alias.error().to_string());
    }
  }
  HVAC_RETURN_IF_ERROR(setup_epoll());

  pool_ = std::make_unique<ThreadPool>(
      std::max<size_t>(1, options_.handler_threads));

  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { reactor_loop(); });
  HVAC_LOG_INFO("rpc server listening on "
                << bound_.address
                << (alias_fd_.valid() ? " and " + local_alias_name(bound_)
                                      : std::string()));
  return Status::Ok();
}

void RpcServer::wake() {
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_.get(), &one, sizeof(one));
}

void RpcServer::stop() {
  if (running_.exchange(false, std::memory_order_acq_rel)) wake();
  if (thread_.joinable()) thread_.join();
  // Pool tasks may still reference connections: drain the workers
  // before tearing them down.
  if (pool_) pool_->shutdown();
  conns_.clear();
  listen_fd_.reset();
  alias_fd_.reset();
  if (bound_.is_unix()) ::unlink(bound_.unix_path().c_str());
}

void RpcServer::drain(int timeout_ms) {
  if (!running_.load(std::memory_order_acquire)) return;
  if (!draining_.exchange(true, std::memory_order_acq_rel)) {
    ResilienceCounters::global().drains.fetch_add(1,
                                                  std::memory_order_relaxed);
    // The reactor owns the listeners: wake it so it deregisters and
    // closes them (no new connections).
    wake();
  }
  const int64_t deadline = steady_now_ms() + std::max(timeout_ms, 0);
  while (inflight_.load(std::memory_order_acquire) > 0 &&
         steady_now_ms() < deadline) {
    timespec ts{0, 1'000'000};  // 1 ms
    ::nanosleep(&ts, nullptr);
  }
}

RpcServer::ReactorStats RpcServer::reactor_stats() const {
  ReactorStats s;
  s.conns = conns_accepted_.load(std::memory_order_relaxed);
  s.local_conns = local_conns_.load(std::memory_order_relaxed);
  s.requests = requests_served_.load(std::memory_order_relaxed);
  s.shed = requests_shed_.load(std::memory_order_relaxed);
  return s;
}

void RpcServer::adopt_connection(int cfd, bool local) {
  auto conn = std::make_shared<Connection>(Fd(cfd));
  if (local || bound_.is_unix()) {
    conn->takes_fds = trusted_unix_peer(cfd);
  } else {
    set_nodelay(cfd);
  }
  epoll_event cev{};
  cev.events = EPOLLIN;
  cev.data.fd = cfd;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, cfd, &cev) != 0) {
    // Unregistered, the connection would never be read: drop it now.
    HVAC_LOG_WARN("epoll_ctl(add conn): " << std::strerror(errno));
    return;
  }
  conns_[cfd] = std::move(conn);
  conns_accepted_.fetch_add(1, std::memory_order_relaxed);
  if (local) local_conns_.fetch_add(1, std::memory_order_relaxed);
}

void RpcServer::accept_all(int listen_fd, bool local) {
  for (;;) {
    const int cfd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) {
      if (errno == EINTR) continue;  // signal, not "done accepting"
      return;  // EAGAIN or error: done accepting
    }
    adopt_connection(cfd, local);
  }
}

void RpcServer::reactor_loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (running_.load(std::memory_order_acquire)) {
    if (draining_.load(std::memory_order_acquire)) {
      // Drain: stop accepting. Deregister + close here (the thread
      // that polls the fds) so no event for them can be in flight.
      for (Fd* listener : {&listen_fd_, &alias_fd_}) {
        if (!listener->valid()) continue;
        ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, listener->get(),
                    nullptr);
        listener->reset();
      }
    }
    const int n = ::epoll_wait(epoll_fd_.get(), events, kMaxEvents, 500);
    if (n < 0) {
      if (errno == EINTR) continue;
      HVAC_LOG_ERROR("epoll_wait: " << std::strerror(errno));
      return;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_.get()) {
        // Drain the eventfd counter so it does not stay readable and
        // spin the loop; stop() still breaks the loop via running_.
        uint64_t wcount = 0;
        [[maybe_unused]] ssize_t wr =
            ::read(wake_fd_.get(), &wcount, sizeof(wcount));
        continue;
      }
      if (listen_fd_.valid() && fd == listen_fd_.get()) {
        accept_all(fd, /*local=*/false);
        continue;
      }
      if (alias_fd_.valid() && fd == alias_fd_.get()) {
        accept_all(fd, /*local=*/true);
        continue;
      }
      // Copied: handle_readable may drop the map's reference.
      auto it = conns_.find(fd);
      if (it != conns_.end()) handle_readable(std::shared_ptr(it->second));
    }
  }
}

void RpcServer::handle_readable(const std::shared_ptr<Connection>& conn) {
  // One recv per readiness event: epoll is level-triggered, so bytes
  // left in the socket report it readable again. Every complete frame
  // the recv brought is dispatched; a frame still cut off waits for
  // another event and is counted once as split.
  Connection& c = *conn;
  const int fd = c.fd.get();
  if (!c.in_payload && c.start > 0) {
    std::memmove(c.buf.data(), c.buf.data() + c.start, c.end - c.start);
    c.end -= c.start;
    c.start = 0;
  }
  const ssize_t n =
      c.in_payload
          ? ::recv(fd, c.payload.data() + c.payload_got,
                   c.payload.size() - c.payload_got, MSG_DONTWAIT)
          : ::recv(fd, c.buf.data() + c.end, c.buf.size() - c.end,
                   MSG_DONTWAIT);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
    return;
  }
  if (n <= 0) {
    drop_connection(fd);
    return;
  }
  if (c.in_payload) {
    c.payload_got += static_cast<size_t>(n);
    if (c.payload_got == c.payload.size()) {
      c.in_payload = false;
      c.split = false;
      dispatch(conn, c.header, std::move(c.payload));
      c.payload = Bytes();
    }
  } else {
    c.end += static_cast<size_t>(n);
  }
  while (!c.in_payload && c.end - c.start >= kHeaderSize) {
    const uint8_t* at = c.buf.data() + c.start;
    const size_t avail = c.end - c.start;
    auto header = decode_header(at, kHeaderSize);
    if (!header.ok()) {
      HVAC_LOG_WARN("dropping connection: " << header.error().to_string());
      drop_connection(fd);
      return;
    }
    if (header->payload_len > options_.max_frame_bytes) {
      // A corrupt or hostile header must not size a buffer: reject
      // before the resize and cut the connection.
      HVAC_LOG_WARN("dropping connection: frame of "
                    << header->payload_len << " bytes exceeds bound "
                    << options_.max_frame_bytes);
      drop_connection(fd);
      return;
    }
    // HVC2: the trace context sits between header and payload.
    const size_t head =
        kHeaderSize + (header->has_trace ? kTraceContextSize : 0);
    if (avail < head) break;
    if (header->has_trace &&
        !decode_trace_context(*header, at + kHeaderSize, kTraceContextSize)
             .ok()) {
      drop_connection(fd);
      return;
    }
    const size_t len = header->payload_len;
    const size_t have = avail - head;
    if (have >= len) {
      c.start += head + len;
      c.split = false;
      dispatch(conn, *header, Bytes(at + head, at + head + len));
      continue;
    }
    if (head + len <= c.buf.size()) break;  // completes in the buffer
    // Too large for the buffer: the rest of the payload is received
    // straight into its own.
    c.header = *header;
    c.payload.resize(len);
    std::memcpy(c.payload.data(), at + head, have);
    c.payload_got = have;
    c.in_payload = true;
    c.start = c.end = 0;
  }
  if ((c.in_payload || c.end > c.start) && !c.split) {
    c.split = true;
    split_frames_.fetch_add(1, std::memory_order_relaxed);
  }
}

void RpcServer::shed_request(const std::shared_ptr<Connection>& conn,
                             const FrameHeader& header,
                             const std::string& reason) {
  requests_shed_.fetch_add(1, std::memory_order_relaxed);
  ResilienceCounters::global().server_shed.fetch_add(
      1, std::memory_order_relaxed);
  FrameHeader resp;
  resp.request_id = header.request_id;
  resp.opcode = header.opcode;
  resp.kind = FrameKind::kResponse;
  resp.status = ErrorCode::kUnavailable;
  WireWriter w;
  w.put_string(reason + "; retry_after_ms=" +
               std::to_string(kShedRetryAfterMs));
  // Retry hint as a structured trailer too (clients that only read
  // the message string skip it by length).
  w.put_u32(kShedRetryAfterMs);
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
  iovec iov[2];
  encode_header(resp, hdr);
  iov[0].iov_base = hdr;
  iov[0].iov_len = kHeaderSize;
  iov[1].iov_base = const_cast<uint8_t*>(body.data());
  iov[1].iov_len = body.size();
  const int head_cnt = body.size() == 0 ? 1 : 2;
  std::lock_guard<std::mutex> lock(conn->write_mutex);

  if (!body.has_extents()) {
    // Header + body leave in one gathered syscall; for a pooled body
    // the bytes go kernel-to-socket with no intermediate copy at all.
    return send_vectored(conn->fd.get(), iov, head_cnt,
                         conn->takes_fds ? body.fd() : -1);
  }

  // Cork the header + memory head with MSG_MORE, then sendfile each
  // extent from its cache fd; the last transfer flushes the cork. When
  // every extent is empty nothing would follow to flush it, so send
  // uncorked instead of stalling the frame in the kernel.
  uint64_t extent_bytes = 0;
  for (const auto& e : body.extents()) extent_bytes += e.length;
  HVAC_RETURN_IF_ERROR(
      extent_bytes > 0 ? send_vectored_more(conn->fd.get(), iov, head_cnt)
                       : send_vectored(conn->fd.get(), iov, head_cnt));
  for (const auto& e : body.extents()) {
    if (e.length == 0) continue;
    HVAC_RETURN_IF_ERROR(
        sendfile_exact(conn->fd.get(), e.fd, e.offset, e.length));
  }
  return Status::Ok();
}

bool RpcServer::run_request(const std::shared_ptr<Connection>& conn,
                            const FrameHeader& header, const Bytes& payload,
                            uint64_t enqueue_ns, bool probe) {
  // Adopt the caller's context (no-op for untraced frames) and wrap
  // the handler + send in server.dispatch (arg: the opcode); the pool
  // wait becomes its own server.queue span — zero-length for inline
  // dispatch, where the handler runs on the reactor with no queue.
  trace::ScopedContext adopt(header.trace);
  const bool traced_queue = enqueue_ns != 0 && header.has_trace;
  const uint64_t dispatch_ns = traced_queue ? trace::now_ns() : 0;
  {
    trace::Span dspan("server.dispatch", header.opcode);
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
    if (Status ws = write_response(conn, resp, body); !ws.ok()) {
      // The header may already be on the wire with the payload short:
      // nothing valid can follow, so shut the socket down and let the
      // reactor reap the connection (it owns drop_connection).
      HVAC_LOG_DEBUG("response write failed: " << ws.error().to_string());
      ::shutdown(conn->fd.get(), SHUT_RDWR);
    }
  }
  // Recorded once the request is answered, beside server.dispatch, so
  // a declined probe's re-queue yields one queue span, not two.
  if (traced_queue) {
    trace::emit("server.queue", enqueue_ns, dispatch_ns);
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
    // Fast path: run on the reactor, no queue, no wake, no cross-core
    // handoff. The handler promised not to block.
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
  if (Status s = pool_->submit(std::move(work)); !s.ok()) {
    conn->inflight.fetch_sub(1, std::memory_order_relaxed);
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    if (s.error().code == ErrorCode::kCapacity) {
      // Pool saturated: shed with retry_after instead of queueing
      // unboundedly — same contract as the per-connection cap.
      shed_request(conn, header, "dispatch queue full");
    } else {
      HVAC_LOG_DEBUG("dropping request during shutdown");
    }
  }
}

void RpcServer::drop_connection(int fd) {
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
  conns_.erase(fd);  // Connection destructor closes the socket
}

}  // namespace hvac::rpc
