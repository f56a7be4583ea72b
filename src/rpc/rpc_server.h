// RPC server: N sharded reactors, each owning an epoll loop, a
// listener shard (SO_REUSEPORT for TCP; fd handoff from reactor 0 for
// unix sockets) and the connections it accepted — the multi-instance
// trick the HVAC paper uses to widen one Mercury progress loop,
// folded into a single process. Frame decode and fast handlers run on
// the owning reactor with no cross-reactor locks; mover-bound
// handlers are queued on a work-stealing pool shard so an idle
// reactor's workers can steal backlog from a busy one.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "rpc/protocol.h"
#include "rpc/socket.h"
#include "rpc/wire.h"

namespace hvac::rpc {

// A handler consumes the request payload and produces a response
// payload (or an error, which travels back as a status-only frame).
using Handler = std::function<Result<Bytes>(const Bytes& request)>;

// Hot-path variant: the handler may hand back a pooled buffer
// (BufferPool lease) instead of a freshly allocated vector; the server
// writes it out with one gathered syscall and the lease returns to the
// pool afterwards.
using PayloadHandler = std::function<Result<Payload>(const Bytes& request)>;

// Where a handler runs. kPooled (default) queues on the work-stealing
// pool shard of the owning reactor — right for mover-bound or
// blocking handlers. kInline runs on the reactor thread itself: zero
// queue/wake cost for fast hit-path handlers (ping, cached reads) at
// the price of stalling that reactor's other connections for the
// handler's duration — only mark handlers that never block on
// anything slower than local NVMe.
enum class DispatchHint : uint8_t { kPooled = 0, kInline };

// Reactor-side first attempt of a pooled handler: it runs inline on
// the owning reactor and either answers (a Result) or declines with
// std::nullopt because answering would block (a mover wait, a PFS
// read). A declined request is queued on the pool shard and the
// pooled handler runs it anew, so one opcode serves its hit
// path inline and its miss path pooled. Either way the request counts
// once as served and records one server.queue + server.dispatch pair
// (a declined probe records no spans).
using ReactorProbe =
    std::function<std::optional<Result<Payload>>(const Bytes& request)>;

struct RpcServerOptions {
  // Bind address: "127.0.0.1:0" for an ephemeral TCP port, or
  // "unix:/tmp/x.sock".
  std::string bind_address = "127.0.0.1:0";
  // Handler pool width (total across all reactors). The paper runs i
  // server instances per node to widen this; we additionally allow
  // multiple handler threads per instance.
  size_t handler_threads = 2;
  // Hard bound on request payload size. A header announcing more than
  // this is treated as hostile/corrupt: the frame is rejected before
  // any buffer is sized to it and the connection is dropped.
  // Configurable via HVAC_MAX_FRAME_BYTES; never above kMaxFrame.
  uint32_t max_frame_bytes = static_cast<uint32_t>(kMaxFrame);
  // Backpressure: requests in flight (dispatched, response not yet
  // written) allowed per connection. Beyond the cap new requests are
  // shed with kUnavailable instead of queueing unboundedly on the
  // handler pool. 0 = unlimited. Tightened via HVAC_MAX_INFLIGHT.
  uint32_t max_inflight_per_conn = 256;
  // retry_after hint (ms) carried in shed responses.
  uint32_t shed_retry_after_ms = 50;
  // Reactor count. 0 = auto: HVAC_REACTORS if set, else
  // min(hardware cores, 8). Each reactor owns an epoll fd, a listener
  // shard and a private buffer-pool arena.
  size_t reactors = 0;
};

class RpcServer {
 public:
  // Per-reactor counters exposed to the metrics frame (section 9).
  struct ReactorStats {
    uint64_t conns = 0;     // connections accepted by this reactor
    uint64_t requests = 0;  // requests served for its connections
    uint64_t steals = 0;    // its queued tasks run by foreign workers
    uint64_t shed = 0;      // requests shed on its connections
    // Steal scans its workers skipped because shard depths were
    // uniform (adaptive throttle, HVAC_STEAL_THROTTLE).
    uint64_t steal_backoffs = 0;
  };

  explicit RpcServer(RpcServerOptions options);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  // Registers a handler for `opcode`. Must be called before start().
  void register_handler(uint16_t opcode, Handler handler,
                        DispatchHint hint = DispatchHint::kPooled);

  // Registers a zero-copy handler (see PayloadHandler above).
  void register_payload_handler(uint16_t opcode, PayloadHandler handler,
                                DispatchHint hint = DispatchHint::kPooled);

  // Registers a pooled handler fronted by a reactor probe (see
  // ReactorProbe above).
  void register_payload_handler(uint16_t opcode, PayloadHandler pooled,
                                ReactorProbe on_reactor);

  // Binds the listener shards and spawns the reactor threads.
  Status start();

  // Stops accepting, closes connections and joins threads. Idempotent.
  void stop();

  // Graceful drain (SIGTERM path): every reactor stops accepting new
  // connections, sheds requests that arrive after the call, and this
  // waits (bounded by `timeout_ms`) for in-flight responses on all
  // reactors to be written. The reactors keep serving reads of
  // already-buffered frames as sheds, so clients get an answer, not a
  // hang. Call stop() afterwards.
  void drain(int timeout_ms = 5000);

  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  // The bound address (useful with port 0).
  const Endpoint& endpoint() const { return bound_; }

  // The zero-copy send mode resolved at start() (HVAC_ZEROCOPY or the
  // capability probe). Handlers consult this to decide whether to
  // return file extents or stage bytes through the buffer pool.
  ZeroCopyMode zerocopy_mode() const { return zerocopy_mode_; }

  // Observability for tests and the metrics frame.
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }
  uint64_t requests_shed() const {
    return requests_shed_.load(std::memory_order_relaxed);
  }
  uint64_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  size_t reactor_count() const { return reactors_.size(); }
  std::vector<ReactorStats> reactor_stats() const;

 private:
  struct Connection;
  struct Reactor;
  struct HandlerEntry {
    PayloadHandler fn;
    DispatchHint hint = DispatchHint::kPooled;
    ReactorProbe probe;  // empty: no reactor-side attempt
  };

  size_t resolve_reactor_count() const;
  Status setup_reactor(Reactor& r, bool with_listener);
  void reactor_loop(Reactor& r);
  void wake(Reactor& r);
  void adopt_connection(Reactor& r, int cfd);
  void handle_readable(Reactor& r, const std::shared_ptr<Connection>& conn);
  void dispatch(const std::shared_ptr<Connection>& conn, FrameHeader header,
                Bytes payload);
  // Runs the handler (or, with `probe`, the reactor probe) and writes
  // the response. Returns false only when the probe declined: nothing
  // was written and the request is still in flight.
  bool run_request(const std::shared_ptr<Connection>& conn,
                   const FrameHeader& header, const Bytes& payload,
                   uint64_t enqueue_ns, bool probe = false);
  // Writes one response frame (header + memory head + extents) under
  // the connection write lock, choosing the zero-copy rung for extent
  // bytes. A failure after the header bytes hit the wire leaves the
  // stream mid-frame: the caller must shut the connection down.
  Status write_response(const std::shared_ptr<Connection>& conn,
                        FrameHeader resp, const Payload& body);
  void drop_connection(Reactor& r, int fd);
  // Writes a status-only error frame for `header` (shed/backpressure
  // path — runs on the owning reactor, before any pool submit).
  void shed_request(const std::shared_ptr<Connection>& conn,
                    const FrameHeader& header, const std::string& reason);

  RpcServerOptions options_;
  std::unordered_map<uint16_t, HandlerEntry> handlers_;
  Endpoint bound_;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::unique_ptr<WorkStealingPool> pool_;
  ZeroCopyMode zerocopy_mode_ = ZeroCopyMode::kOff;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> requests_shed_{0};
  std::atomic<uint64_t> inflight_{0};
  // Round-robin cursor for unix-socket fd handoff (reactor 0 accepts).
  std::atomic<uint64_t> next_reactor_{0};
};

}  // namespace hvac::rpc
