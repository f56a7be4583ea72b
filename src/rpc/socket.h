// RAII socket plumbing for the RPC transport: TCP (loopback or real
// network) and Unix-domain stream sockets, the node-local alias that
// lets same-host clients of a TCP endpoint skip the TCP stack, plus
// robust full-buffer send/recv helpers that handle EINTR and short
// transfers.
#pragma once

#include <sys/uio.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

#include "common/result.h"

namespace hvac::rpc {

// Owning file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void reset();

 private:
  int fd_ = -1;
};

// "host:port" for TCP, or "unix:/path/sock" for Unix-domain sockets.
struct Endpoint {
  std::string address;

  bool is_unix() const { return address.rfind("unix:", 0) == 0; }
  std::string unix_path() const { return address.substr(5); }
  // Splits host:port; returns kInvalidArgument when malformed.
  Result<std::pair<std::string, uint16_t>> host_port() const;
};

// Creates a listening socket bound to `endpoint`. For TCP, a port of 0
// picks an ephemeral port; `bound_endpoint` (if non-null) receives the
// actual address. All sockets are created CLOEXEC so they never leak
// into the intercept shim's exec'd children.
Result<Fd> listen_on(const Endpoint& endpoint, Endpoint* bound_endpoint);

// The node-local alias of a TCP endpoint: the abstract-namespace
// AF_UNIX name "\0hvac:<host:port>", spelled from the address string a
// TCP-bound server reports (so "localhost:PORT" names no alias). Shown
// as "@hvac:<host:port>", the way ss(8) prints abstract names. The
// kernel scopes abstract names to the network namespace and drops the
// name with the socket: no file to clean up after a crash.
std::string local_alias_name(const Endpoint& endpoint);

// Listens on `endpoint`'s alias (CLOEXEC, like every listener here).
// EADDRINUSE when another socket holds the name.
Result<Fd> listen_on_alias(const Endpoint& endpoint);

// Connect with an optional timeout in milliseconds (<=0 means no
// deadline). unix: endpoints connect non-blocking and retry a full
// backlog until the deadline (kTimeout). A TCP endpoint first dials its
// alias and takes it when the listener's owner (SO_PEERCRED) is this
// process's euid or root; a missing, busy or foreign alias falls back to
// TCP at once.
Result<Fd> connect_to(const Endpoint& endpoint, int timeout_ms = 5000);

// Gathered write: sends every byte of `iov[0..iovcnt)` in order,
// handling EINTR and partial writev()s (a short write mid-iovec
// resumes at the exact byte where the kernel stopped; the retry after
// EINTR re-sends only the unconsumed tail, with MSG_NOSIGNAL still
// applied — no SIGPIPE and no duplicated bytes). The iovec array is
// clobbered as progress bookkeeping — pass a scratch copy. One
// syscall in the common case, so a frame header + payload go out
// together. A `pass_fd` >= 0 goes to an AF_UNIX peer as SCM_RIGHTS on
// the first byte of `iov`, so the peer receives it with whichever
// recvmsg reads that byte; the caller keeps its copy.
Status send_vectored(int fd, iovec* iov, int iovcnt, int pass_fd = -1);

// One frame in one gathered send: `header` (the frame header plus any
// trace context) and then `body`. A header sent on its own wakes the
// peer's reactor, which reads it, finds no body yet and sleeps again;
// gathered, the frame costs the peer one wakeup.
Status send_frame(int fd, const void* header, size_t header_len,
                  const void* body, size_t body_len);

// send_vectored with MSG_MORE: corks the bytes so the kernel holds
// them until the next uncorked send on the fd. Used to emit a frame
// header immediately before a sendfile payload — header and
// first payload bytes then leave in one segment instead of two.
// MSG_NOSIGNAL and EINTR handling are identical to send_vectored
// (MSG_MORE is advisory; a partial send resumed after EINTR keeps
// both flags on every retry).
Status send_vectored_more(int fd, iovec* iov, int iovcnt);

// ---- Zero-copy send -------------------------------------------------
//
// A cached extent leaves the server kernel-to-kernel: sendfile(2) from
// the cache fd straight to the socket, never staged in user space.

// Sends exactly `size` bytes of `file_fd` starting at `offset` to the
// socket via sendfile(2), resuming short kernel transfers, EINTR and
// EAGAIN (poll POLLOUT) until the extent is fully on the wire. SIGPIPE
// is blocked on the calling thread from its first call on (sendfile has
// no MSG_NOSIGNAL), and the one an EPIPE leaves pending is consumed. Fault sites: zc_send (error/delay via check,
// short=N via cap_len). Any failure after the first byte leaves the
// stream mid-frame — the caller must drop the connection.
Status sendfile_exact(int sock_fd, int file_fd, uint64_t offset, size_t size);

// Process-global zero-copy telemetry (metrics frame v2 section 6).
struct ZeroCopyCounters {
  std::atomic<uint64_t> sendfile_sends{0};   // extents sent via sendfile
  std::atomic<uint64_t> sendfile_bytes{0};
  std::atomic<uint64_t> short_resumes{0};    // kernel returned < asked
  std::atomic<uint64_t> fd_passes{0};        // cache fds passed to clients
  std::atomic<uint64_t> fd_pass_bytes{0};    // bytes of the files passed
  static ZeroCopyCounters& global();
};

// Reads exactly `size` bytes. A clean EOF at offset 0 is reported as
// kUnavailable (peer closed); mid-frame EOF is kProtocol.
Status recv_all(int fd, void* data, size_t size);

// recv_all with an absolute deadline (CLOCK_MONOTONIC ms, as returned
// by steady_now_ms(); < 0 disables the check). The deadline is tested
// between recv()s, so it bounds slow-drip peers — a server trickling
// one byte per SO_RCVTIMEO window passes the per-recv timeout forever
// but trips this after at most deadline + one recv timeout. Expiry is
// kTimeout; the caller must treat the stream as poisoned (bytes may
// have been consumed mid-frame).
//
// With `passed`, it also takes the fd a peer may attach (SCM_RIGHTS) to
// these bytes: recvmsg with MSG_CMSG_CLOEXEC, the fd into `*passed`.
// More than one fd is kProtocol with every received fd closed. An fd
// the kernel could not install (MSG_CTRUNC with none received: this
// process is at RLIMIT_NOFILE) is dropped and the bytes still arrive,
// so the caller sees a frame without an fd. Without it, plain recv()
// leaves no fd behind either: the kernel closes what a reader without
// a control buffer does not take.
Status recv_all_until(int fd, void* data, size_t size, int64_t deadline_ms,
                      Fd* passed = nullptr);

// Marks fd non-blocking (used by the epoll progress loop).
Status set_nonblocking(int fd, bool nonblocking);

// Disables Nagle on TCP sockets; no-op for Unix sockets.
void set_nodelay(int fd);

}  // namespace hvac::rpc
