// Synchronous RPC client channel. One outstanding call per channel
// (calls are serialized under a mutex); the HVAC client keeps one
// channel per server (plus more under HVAC(i×1), where each instance
// is a separate endpoint). Reconnects lazily after transport errors.
//
// Resilience: every channel consults the process-wide circuit breaker
// for its endpoint (rpc/health.h) before touching the network — when
// the circuit is open, calls fail in nanoseconds with kUnavailable
// instead of paying a connect timeout. Each call is also bounded by a
// whole-call deadline (call_timeout_ms), which catches slow-drip
// servers the per-recv SO_RCVTIMEO cannot.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "rpc/health.h"
#include "rpc/protocol.h"
#include "rpc/socket.h"
#include "rpc/wire.h"

namespace hvac::rpc {

struct RpcClientOptions {
  int connect_timeout_ms = 5000;
  // Per-recv inactivity bound (SO_RCVTIMEO). 0 disables.
  int recv_timeout_ms = 30000;
  // Whole-call deadline: send + all recvs of one call must finish
  // within this budget. Granularity is one recv — a blocked recv is
  // cut by recv_timeout_ms, then the deadline check trips. 0 disables.
  int call_timeout_ms = 30000;
  // Bounded retry for *idempotent* calls (call_idempotent): total
  // attempts = 1 + max_retries, with retry_backoff_ms * attempt sleeps
  // in between. Retries stop early when the breaker opens.
  int max_retries = 1;
  int retry_backoff_ms = 20;
};

class RpcClient {
 public:
  explicit RpcClient(Endpoint endpoint, RpcClientOptions options = {});
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  // Sends `request` under `opcode` and waits for the response payload.
  // A handler-side error is surfaced with its original code/message; a
  // transport error surfaces as kUnavailable/kTimeout and poisons the
  // connection (the next call reconnects).
  Result<Bytes> call(uint16_t opcode, const Bytes& request);

  // Hot-path variant: the response payload is received into a buffer
  // leased from BufferPool::global(), so bulk reads recycle receive
  // buffers instead of allocating one per RPC. The lease rides inside
  // the returned Payload and goes back to the pool when it is dropped.
  //
  // `take_fd` is for a request that opted in to a passed fd: only such
  // a call reads its reply header with recvmsg, and an fd the server
  // attached to the answering frame comes back in Payload::fd(). Fds on
  // stale or error frames are closed; a frame with more than one fd
  // fails the call like a broken transport. A frame whose fd this
  // process had no slot for comes back without one (see
  // recv_all_until).
  Result<Payload> call_payload(uint16_t opcode, const Bytes& request,
                               bool take_fd = false);

  // For idempotent ops only (stat/read/ping/metrics): retries
  // transport-level failures (kUnavailable/kTimeout) up to max_retries
  // times with linear backoff. Retrying is gated by the breaker — once
  // the circuit opens there is no point hammering the endpoint.
  Result<Bytes> call_idempotent(uint16_t opcode, const Bytes& request);
  Result<Payload> call_payload_idempotent(uint16_t opcode,
                                          const Bytes& request);

  // Convenience for WireWriter-built requests.
  Result<Bytes> call(uint16_t opcode, const WireWriter& request) {
    return call(opcode, request.bytes());
  }
  Result<Bytes> call_idempotent(uint16_t opcode, const WireWriter& request) {
    return call_idempotent(opcode, request.bytes());
  }

  const Endpoint& endpoint() const { return endpoint_; }

  // This channel's shared breaker (same object for every channel to
  // this endpoint in the process).
  EndpointHealth& health() { return *health_; }

  // Drops the current connection (tests use this to simulate a server
  // crash mid-stream).
  void disconnect();

 private:
  Status ensure_connected();

  Endpoint endpoint_;
  RpcClientOptions options_;
  std::shared_ptr<EndpointHealth> health_;
  std::mutex mutex_;
  Fd socket_;
  uint64_t next_request_id_ = 1;
};

}  // namespace hvac::rpc
