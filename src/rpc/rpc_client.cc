#include "rpc/rpc_client.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <time.h>

#include <algorithm>
#include <cerrno>

#include "common/fault_injection.h"
#include "common/log.h"
#include "common/trace.h"

namespace hvac::rpc {

namespace {

bool is_transport_error(ErrorCode code) {
  return code == ErrorCode::kUnavailable || code == ErrorCode::kTimeout;
}

void sleep_ms(int ms) {
  timespec ts{ms / 1000, static_cast<long>(ms % 1000) * 1'000'000L};
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

}  // namespace

RpcClient::RpcClient(Endpoint endpoint, RpcClientOptions options)
    : endpoint_(std::move(endpoint)),
      options_(options),
      health_(HealthRegistry::global().get(endpoint_.address)) {}

RpcClient::~RpcClient() = default;

void RpcClient::disconnect() {
  std::lock_guard<std::mutex> lock(mutex_);
  socket_.reset();
}

Status RpcClient::ensure_connected() {
  if (socket_.valid()) return Status::Ok();
  HVAC_ASSIGN_OR_RETURN(socket_,
                        connect_to(endpoint_, options_.connect_timeout_ms));
  if (options_.recv_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = options_.recv_timeout_ms / 1000;
    tv.tv_usec = (options_.recv_timeout_ms % 1000) * 1000;
    ::setsockopt(socket_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  return Status::Ok();
}

Result<Bytes> RpcClient::call(uint16_t opcode, const Bytes& request) {
  HVAC_ASSIGN_OR_RETURN(Payload payload, call_payload(opcode, request));
  return std::move(payload).take_bytes();
}

Result<Payload> RpcClient::call_payload(uint16_t opcode, const Bytes& request,
                                        bool take_fd) {
  if (request.size() > kMaxFrame) {
    return Error(ErrorCode::kInvalidArgument, "request exceeds max frame");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  // One span per wire call; retries show up as separate rpc.call spans
  // under the caller's span, joined by rpc.retry events.
  trace::Span span("rpc.call", opcode);
  if (!health_->allow_request()) {
    trace::Span::event("rpc.breaker_open");
    return Error(ErrorCode::kUnavailable,
                 "circuit open for " + endpoint_.address);
  }
  // Every exit below reports its outcome so the breaker tracks
  // *transport* health: handler-side errors count as successes (the
  // endpoint answered), connect/send/recv failures count against it.
  auto fail = [this](Error error) -> Error {
    if (is_transport_error(error.code)) health_->record_failure();
    return error;
  };

  if (Status connected = ensure_connected(); !connected.ok()) {
    return fail(connected.error());
  }
  const int64_t deadline_ms =
      options_.call_timeout_ms > 0
          ? steady_now_ms() + options_.call_timeout_ms
          : -1;

  FrameHeader header;
  header.payload_len = static_cast<uint32_t>(request.size());
  header.request_id = next_request_id_++;
  header.opcode = opcode;
  header.kind = FrameKind::kRequest;
  if (span.armed()) {
    // current_context() parents the server side under this rpc.call.
    header.has_trace = true;
    header.trace = trace::current_context();
  }

  uint8_t hdr[kMaxHeaderSize];
  const size_t hdr_len = encode_header(header, hdr);
  Status sent = fault::check(fault::Site::kRpcSend);
  if (sent.ok()) {
    sent = send_frame(socket_.get(), hdr, hdr_len, request.data(),
                      request.size());
  }
  if (!sent.ok()) {
    socket_.reset();
    return fail(Error(ErrorCode::kUnavailable,
                      "send to " + endpoint_.address + " failed: " +
                          sent.error().message));
  }

  // One outstanding call per channel, so the next response is ours —
  // but we still validate the id to catch protocol bugs early.
  for (;;) {
    uint8_t rhdr[kHeaderSize];
    Fd passed;  // closed unless it rides the answering frame out
    Status got = fault::check(fault::Site::kRpcRecv);
    if (got.ok()) {
      got = recv_all_until(socket_.get(), rhdr, kHeaderSize, deadline_ms,
                           take_fd ? &passed : nullptr);
    }
    if (!got.ok()) {
      socket_.reset();
      if (got.error().code == ErrorCode::kTimeout) {
        ResilienceCounters::global().deadline_misses.fetch_add(
            1, std::memory_order_relaxed);
      }
      return fail(Error(got.error().code == ErrorCode::kTimeout
                            ? ErrorCode::kTimeout
                            : ErrorCode::kUnavailable,
                        "recv from " + endpoint_.address + " failed: " +
                            got.error().message));
    }
    auto resp = decode_header(rhdr, kHeaderSize);
    if (!resp.ok()) {
      socket_.reset();
      return fail(resp.error());
    }
    if (resp->has_trace) {
      // Responses are HVC1 today; tolerate a future traced response by
      // consuming (and ignoring) its context.
      uint8_t tbuf[kTraceContextSize];
      got = recv_all_until(socket_.get(), tbuf, sizeof(tbuf), deadline_ms);
      if (!got.ok()) {
        socket_.reset();
        return fail(Error(ErrorCode::kUnavailable, got.error().message));
      }
    }
    BufferPool::Lease payload =
        BufferPool::global().acquire(resp->payload_len);
    if (resp->payload_len > 0) {
      got = recv_all_until(socket_.get(), payload.data(), payload.size(),
                           deadline_ms);
      if (!got.ok()) {
        socket_.reset();
        if (got.error().code == ErrorCode::kTimeout) {
          ResilienceCounters::global().deadline_misses.fetch_add(
              1, std::memory_order_relaxed);
        }
        return fail(Error(got.error().code == ErrorCode::kTimeout
                              ? ErrorCode::kTimeout
                              : ErrorCode::kUnavailable,
                          got.error().message));
      }
    }
    if (resp->kind != FrameKind::kResponse ||
        resp->request_id != header.request_id) {
      HVAC_LOG_WARN("discarding stale frame id=" << resp->request_id);
      continue;
    }
    health_->record_success();
    if (resp->status != ErrorCode::kOk) {
      WireReader r(payload.data(), payload.size());
      auto msg = r.get_string();
      return Error(resp->status, msg.ok() ? *msg : "(no message)");
    }
    Payload answer(std::move(payload));
    answer.set_fd(std::move(passed));
    return answer;
  }
}

Result<Payload> RpcClient::call_payload_idempotent(uint16_t opcode,
                                                   const Bytes& request) {
  const int attempts = 1 + std::max(options_.max_retries, 0);
  Result<Payload> result = call_payload(opcode, request);
  for (int attempt = 1; attempt < attempts; ++attempt) {
    if (result.ok() || !is_transport_error(result.error().code)) break;
    // No point hammering a tripped endpoint — the caller's failover
    // path (replica / PFS) is the productive next step.
    if (health_->state() == EndpointHealth::State::kOpen) break;
    trace::Span::event("rpc.retry", uint64_t(attempt));
    ResilienceCounters::global().retries.fetch_add(
        1, std::memory_order_relaxed);
    if (options_.retry_backoff_ms > 0) {
      sleep_ms(options_.retry_backoff_ms * attempt);
    }
    result = call_payload(opcode, request);
  }
  return result;
}

Result<Bytes> RpcClient::call_idempotent(uint16_t opcode,
                                         const Bytes& request) {
  HVAC_ASSIGN_OR_RETURN(Payload payload,
                        call_payload_idempotent(opcode, request));
  return std::move(payload).take_bytes();
}

}  // namespace hvac::rpc
