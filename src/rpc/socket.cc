#include "rpc/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <sys/sendfile.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstring>

#include "common/fault_injection.h"
#include "common/trace.h"
#include "rpc/health.h"  // steady_now_ms

namespace hvac::rpc {

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::pair<std::string, uint16_t>> Endpoint::host_port() const {
  const size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= address.size()) {
    return Error(ErrorCode::kInvalidArgument,
                 "endpoint not host:port: " + address);
  }
  const std::string host = address.substr(0, colon);
  char* end = nullptr;
  const long port = std::strtol(address.c_str() + colon + 1, &end, 10);
  if (*end != '\0' || port < 0 || port > 65535) {
    return Error(ErrorCode::kInvalidArgument, "bad port in " + address);
  }
  return std::make_pair(host, static_cast<uint16_t>(port));
}

namespace {

// SOCK_CLOEXEC everywhere: the intercept shim fork/execs unmodified
// target binaries, and an inherited listener or connection fd in the
// child would hold ports open (and confuse epoll) past server exit.
Result<Fd> make_tcp_socket() {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Error::from_errno(errno, "socket(AF_INET)");
  return Fd(fd);
}

Result<Fd> make_unix_socket() {
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Error::from_errno(errno, "socket(AF_UNIX)");
  return Fd(fd);
}

Result<sockaddr_in> tcp_addr(const Endpoint& endpoint) {
  HVAC_ASSIGN_OR_RETURN(auto hp, endpoint.host_port());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(hp.second);
  const std::string& host = hp.first;
  if (host == "*" || host.empty()) {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    // Only dotted-quad (plus localhost) is supported; the library
    // always runs on loopback in this reproduction.
    if (host == "localhost") {
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    } else {
      return Error(ErrorCode::kInvalidArgument, "unresolvable host " + host);
    }
  }
  return addr;
}

Result<sockaddr_un> unix_addr(const Endpoint& endpoint) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string path = endpoint.unix_path();
  if (path.size() + 1 > sizeof(addr.sun_path)) {
    return Error(ErrorCode::kInvalidArgument, "unix path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

constexpr char kAliasPrefix[] = "hvac:";

// An abstract name is every byte of sun_path up to the address length
// (no terminator), so bind and connect must pass the same exact length.
struct AliasAddr {
  sockaddr_un addr{};
  socklen_t len = 0;
};

Result<AliasAddr> alias_addr(const Endpoint& endpoint) {
  const std::string name = kAliasPrefix + endpoint.address;
  AliasAddr a;
  a.addr.sun_family = AF_UNIX;
  if (name.size() + 1 > sizeof(a.addr.sun_path)) {
    return Error(ErrorCode::kInvalidArgument, "alias too long: " + name);
  }
  a.addr.sun_path[0] = '\0';
  std::memcpy(a.addr.sun_path + 1, name.data(), name.size());
  a.len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + 1 +
                                 name.size());
  return a;
}

// Non-blocking AF_UNIX connect. A unix stream connect either completes
// at once or fails; a full backlog is EAGAIN, which `retry_full`
// retries until the deadline (timeout_ms <= 0: none) and which
// otherwise fails at once. Returns a blocking socket.
Result<Fd> connect_unix(const sockaddr_un& addr, socklen_t len,
                        const std::string& name, int timeout_ms,
                        bool retry_full) {
  const int raw =
      ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (raw < 0) return Error::from_errno(errno, "socket(AF_UNIX)");
  Fd fd(raw);
  const int64_t deadline = steady_now_ms() + timeout_ms;
  while (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                   len) != 0) {
    if (errno == EINTR) continue;
    if (errno != EAGAIN || !retry_full) {
      return Error::from_errno(errno, "connect " + name);
    }
    if (timeout_ms > 0 && steady_now_ms() >= deadline) {
      return Error(ErrorCode::kTimeout, "connect timeout to " + name);
    }
    // Nothing to poll for: the backlog frees when the server accepts.
    timespec ts{0, 1'000'000};  // 1 ms
    ::nanosleep(&ts, nullptr);
  }
  HVAC_RETURN_IF_ERROR(set_nonblocking(fd.get(), false));
  return fd;
}

// The alias of a TCP endpoint, or an invalid Fd when it cannot be
// used: nothing listens, the backlog is full, or the listener belongs
// to another user. Abstract names carry no file permissions, so any
// local user could bind one first; the listener's credentials decide.
Fd dial_alias(const Endpoint& endpoint) {
  auto alias = alias_addr(endpoint);
  if (!alias.ok()) return Fd();
  auto dialed = connect_unix(alias->addr, alias->len,
                             local_alias_name(endpoint), 0,
                             /*retry_full=*/false);
  if (!dialed.ok()) return Fd();
  ucred peer{};
  socklen_t peer_len = sizeof(peer);
  if (::getsockopt(dialed->get(), SOL_SOCKET, SO_PEERCRED, &peer,
                   &peer_len) != 0 ||
      (peer.uid != ::geteuid() && peer.uid != 0)) {
    return Fd();
  }
  return std::move(dialed).value();
}

}  // namespace

std::string local_alias_name(const Endpoint& endpoint) {
  return std::string("@") + kAliasPrefix + endpoint.address;
}

Result<Fd> listen_on_alias(const Endpoint& endpoint) {
  HVAC_ASSIGN_OR_RETURN(AliasAddr alias, alias_addr(endpoint));
  HVAC_ASSIGN_OR_RETURN(Fd fd, make_unix_socket());
  const std::string name = local_alias_name(endpoint);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&alias.addr),
             alias.len) != 0) {
    return Error::from_errno(errno, "bind " + name);
  }
  if (::listen(fd.get(), 128) != 0) {
    return Error::from_errno(errno, "listen " + name);
  }
  return fd;
}

Result<Fd> listen_on(const Endpoint& endpoint, Endpoint* bound_endpoint) {
  if (endpoint.is_unix()) {
    HVAC_ASSIGN_OR_RETURN(Fd fd, make_unix_socket());
    HVAC_ASSIGN_OR_RETURN(sockaddr_un addr, unix_addr(endpoint));
    ::unlink(addr.sun_path);
    if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return Error::from_errno(errno, "bind " + endpoint.address);
    }
    if (::listen(fd.get(), 128) != 0) {
      return Error::from_errno(errno, "listen " + endpoint.address);
    }
    if (bound_endpoint != nullptr) *bound_endpoint = endpoint;
    return fd;
  }

  HVAC_ASSIGN_OR_RETURN(Fd fd, make_tcp_socket());
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  HVAC_ASSIGN_OR_RETURN(sockaddr_in addr, tcp_addr(endpoint));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Error::from_errno(errno, "bind " + endpoint.address);
  }
  if (::listen(fd.get(), 128) != 0) {
    return Error::from_errno(errno, "listen " + endpoint.address);
  }
  if (bound_endpoint != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&actual),
                      &len) != 0) {
      return Error::from_errno(errno, "getsockname");
    }
    char host[INET_ADDRSTRLEN] = {0};
    ::inet_ntop(AF_INET, &actual.sin_addr, host, sizeof(host));
    bound_endpoint->address =
        std::string(host) + ":" + std::to_string(ntohs(actual.sin_port));
  }
  return fd;
}

Result<Fd> connect_to(const Endpoint& endpoint, int timeout_ms) {
  HVAC_RETURN_IF_ERROR(fault::check(fault::Site::kRpcConnect));
  if (endpoint.is_unix()) {
    HVAC_ASSIGN_OR_RETURN(sockaddr_un addr, unix_addr(endpoint));
    return connect_unix(addr, sizeof(addr), endpoint.address, timeout_ms,
                        /*retry_full=*/true);
  }
  if (Fd local = dial_alias(endpoint); local.valid()) return local;

  HVAC_ASSIGN_OR_RETURN(Fd fd, make_tcp_socket());
  HVAC_ASSIGN_OR_RETURN(sockaddr_in addr, tcp_addr(endpoint));
  if (timeout_ms > 0) {
    HVAC_RETURN_IF_ERROR(set_nonblocking(fd.get(), true));
  }
  int rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno == EINPROGRESS && timeout_ms > 0) {
    // poll with the *remaining* time: a signal (EINTR) mid-wait must
    // not abort the connect, and must not reset the clock either.
    const int64_t deadline = steady_now_ms() + timeout_ms;
    int pr;
    for (;;) {
      const int64_t remaining = deadline - steady_now_ms();
      if (remaining <= 0) {
        pr = 0;
        break;
      }
      pollfd pfd{fd.get(), POLLOUT, 0};
      pr = ::poll(&pfd, 1, static_cast<int>(remaining));
      if (pr < 0 && errno == EINTR) continue;
      break;
    }
    if (pr == 0) {
      return Error(ErrorCode::kTimeout,
                   "connect timeout to " + endpoint.address);
    }
    if (pr < 0) return Error::from_errno(errno, "poll(connect)");
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      return Error::from_errno(err, "connect " + endpoint.address);
    }
    rc = 0;
  }
  if (rc != 0) {
    return Error::from_errno(errno, "connect " + endpoint.address);
  }
  if (timeout_ms > 0) {
    HVAC_RETURN_IF_ERROR(set_nonblocking(fd.get(), false));
  }
  set_nodelay(fd.get());
  return fd;
}

namespace {

// Blocks until `fd` is writable again (EAGAIN on a non-blocking
// socket mid-frame: there is no epoll re-arm for a half-sent frame,
// the writer owns the stream until the frame is complete).
Status wait_writable(int fd) {
  for (;;) {
    pollfd pfd{fd, POLLOUT, 0};
    const int pr = ::poll(&pfd, 1, -1);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return Error::from_errno(errno, "poll(POLLOUT)");
    }
    if (pr > 0) return Status::Ok();
  }
}

Status send_vectored_flags(int fd, iovec* iov, int iovcnt, int flags,
                           int pass_fd = -1) {
  // sendmsg (not writev) so MSG_NOSIGNAL applies: no SIGPIPE on dead
  // peers. `flags` carries MSG_NOSIGNAL (always) plus MSG_MORE for the
  // corked variant; every retry after EINTR or a short write re-sends
  // with the same flags. `pass_fd` rides the first send that moves a
  // byte, and only that one.
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))];
  int first = 0;
  while (first < iovcnt) {
    msghdr msg{};
    msg.msg_iov = iov + first;
    msg.msg_iovlen = static_cast<size_t>(iovcnt - first);
    if (pass_fd >= 0) {
      std::memset(control, 0, sizeof(control));
      msg.msg_control = control;
      msg.msg_controllen = sizeof(control);
      cmsghdr* cmsg = CMSG_FIRSTHDR(&msg);
      cmsg->cmsg_level = SOL_SOCKET;
      cmsg->cmsg_type = SCM_RIGHTS;
      cmsg->cmsg_len = CMSG_LEN(sizeof(int));
      std::memcpy(CMSG_DATA(cmsg), &pass_fd, sizeof(int));
    }
    const ssize_t n = ::sendmsg(fd, &msg, flags);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Reactor connections are accept4'd non-blocking; a full
        // socket buffer mid-frame means wait, not fail — the frame
        // header already promised these bytes.
        HVAC_RETURN_IF_ERROR(wait_writable(fd));
        continue;
      }
      return Error::from_errno(errno, "sendmsg");
    }
    pass_fd = -1;
    // Consume `n` bytes across the iovec list; a partial write can
    // stop mid-entry, in which case that entry is advanced in place.
    size_t left = static_cast<size_t>(n);
    while (first < iovcnt && left >= iov[first].iov_len) {
      left -= iov[first].iov_len;
      ++first;
    }
    if (first < iovcnt && left > 0) {
      iov[first].iov_base = static_cast<uint8_t*>(iov[first].iov_base) + left;
      iov[first].iov_len -= left;
    }
  }
  return Status::Ok();
}

}  // namespace

Status send_vectored(int fd, iovec* iov, int iovcnt, int pass_fd) {
  return send_vectored_flags(fd, iov, iovcnt, MSG_NOSIGNAL, pass_fd);
}

Status send_vectored_more(int fd, iovec* iov, int iovcnt) {
  return send_vectored_flags(fd, iov, iovcnt, MSG_NOSIGNAL | MSG_MORE);
}

Status send_frame(int fd, const void* header, size_t header_len,
                  const void* body, size_t body_len) {
  iovec iov[2] = {{const_cast<void*>(header), header_len},
                  {const_cast<void*>(body), body_len}};
  return send_vectored(fd, iov, body_len == 0 ? 1 : 2);
}

Status recv_all(int fd, void* data, size_t size) {
  auto* p = static_cast<uint8_t*>(data);
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, p + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Error::from_errno(errno, "recv");
    }
    if (n == 0) {
      return got == 0 ? Error(ErrorCode::kUnavailable, "peer closed")
                      : Error(ErrorCode::kProtocol, "eof mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

namespace {

// recvmsg into [data, data + size), moving an SCM_RIGHTS fd into
// `*passed`; see recv_all_until.
ssize_t recv_with_fd(int fd, void* data, size_t size, Fd* passed,
                     Status* bad) {
  iovec iov{data, size};
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))];
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = control;
  msg.msg_controllen = sizeof(control);
  const ssize_t n = ::recvmsg(fd, &msg, MSG_CMSG_CLOEXEC);
  if (n < 0) return n;
  bool extra = false;  // a second fd for one frame
  for (cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr;
       c = CMSG_NXTHDR(&msg, c)) {
    if (c->cmsg_level != SOL_SOCKET || c->cmsg_type != SCM_RIGHTS) continue;
    const size_t count = (c->cmsg_len - CMSG_LEN(0)) / sizeof(int);
    for (size_t i = 0; i < count; ++i) {
      int received = -1;
      std::memcpy(&received, CMSG_DATA(c) + i * sizeof(int), sizeof(int));
      if (passed->valid()) {
        ::close(received);
        extra = true;
      } else {
        *passed = Fd(received);
      }
    }
  }
  // MSG_CTRUNC with no fd installed is this process at its fd limit:
  // the kernel dropped the fd, and the bytes are intact, so the frame
  // is read on without one. With an fd installed it means more than one.
  if (extra || ((msg.msg_flags & MSG_CTRUNC) != 0 && passed->valid())) {
    passed->reset();
    *bad = Error(ErrorCode::kProtocol, "malformed fd-passing frame");
  }
  return n;
}

}  // namespace

Status recv_all_until(int fd, void* data, size_t size, int64_t deadline_ms,
                      Fd* passed) {
  auto* p = static_cast<uint8_t*>(data);
  size_t got = 0;
  Status bad = Status::Ok();
  while (got < size) {
    if (deadline_ms >= 0 && steady_now_ms() >= deadline_ms) {
      return Error(ErrorCode::kTimeout, "call deadline exceeded");
    }
    const ssize_t n =
        passed != nullptr
            ? recv_with_fd(fd, p + got, size - got, passed, &bad)
            : ::recv(fd, p + got, size - got, 0);
    if (!bad.ok()) return bad;
    if (n < 0) {
      if (errno == EINTR) continue;
      return Error::from_errno(errno, "recv");
    }
    if (n == 0) {
      return got == 0 ? Error(ErrorCode::kUnavailable, "peer closed")
                      : Error(ErrorCode::kUnavailable, "eof mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status set_nonblocking(int fd, bool nonblocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Error::from_errno(errno, "fcntl(F_GETFL)");
  const int desired = nonblocking ? (flags | O_NONBLOCK)
                                  : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, desired) < 0) {
    return Error::from_errno(errno, "fcntl(F_SETFL)");
  }
  return Status::Ok();
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// ---- Zero-copy send --------------------------------------------------

namespace {

// sendfile has no MSG_NOSIGNAL: a dead peer raises SIGPIPE at the
// thread that wrote. The first sendfile_exact on a thread blocks
// SIGPIPE there for the thread's life, so sendfile_exact keeps the
// same no-SIGPIPE contract as send_vectored without two mask calls
// around every extent. Blocked, the signal is only left pending: an
// EPIPE consumes it.
void block_sigpipe_once() {
  thread_local bool blocked = false;
  if (blocked) return;
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGPIPE);
  blocked = ::pthread_sigmask(SIG_BLOCK, &sigs, nullptr) == 0;
}

void consume_sigpipe() {
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGPIPE);
  const timespec zero{0, 0};
  (void)::sigtimedwait(&sigs, nullptr, &zero);
}

}  // namespace

Status sendfile_exact(int sock_fd, int file_fd, uint64_t offset,
                      size_t size) {
  trace::Span span("zc.sendfile", size);
  block_sigpipe_once();
  auto& zc = ZeroCopyCounters::global();
  off_t off = static_cast<off_t>(offset);
  size_t left = size;
  while (left > 0) {
    HVAC_RETURN_IF_ERROR(fault::check(fault::Site::kZcSend));
    const size_t want = fault::cap_len(fault::Site::kZcSend, left);
    const ssize_t n = ::sendfile(sock_fd, file_fd, &off, want);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        HVAC_RETURN_IF_ERROR(wait_writable(sock_fd));
        continue;
      }
      const int err = errno;
      if (err == EPIPE) consume_sigpipe();
      return Error::from_errno(err, "sendfile");
    }
    if (n == 0) {
      // The file shrank under the extent we promised in the header:
      // nothing valid can follow on this stream.
      return Error(ErrorCode::kProtocol, "sendfile: eof inside extent");
    }
    left -= static_cast<size_t>(n);
    if (left > 0) zc.short_resumes.fetch_add(1, std::memory_order_relaxed);
  }
  zc.sendfile_sends.fetch_add(1, std::memory_order_relaxed);
  zc.sendfile_bytes.fetch_add(size, std::memory_order_relaxed);
  return Status::Ok();
}

ZeroCopyCounters& ZeroCopyCounters::global() {
  static ZeroCopyCounters counters;
  return counters;
}

}  // namespace hvac::rpc
