#include "rpc/async_client.h"

#include <sys/socket.h>
#include <sys/time.h>

#include "common/fault_injection.h"
#include "common/log.h"
#include "common/trace.h"
#include "rpc/wire.h"

namespace hvac::rpc {

AsyncRpcClient::AsyncRpcClient(Endpoint endpoint, RpcClientOptions options)
    : endpoint_(std::move(endpoint)),
      options_(options),
      health_(HealthRegistry::global().get(endpoint_.address)) {}

AsyncRpcClient::~AsyncRpcClient() { shutdown(); }

Status AsyncRpcClient::ensure_connected_locked(
    std::unique_lock<std::mutex>& lock) {
  if (broken_) {
    // The receiver exited (or is about to) after a transport error;
    // reap it before dialing again. The join must happen without
    // mutex_ held — the exiting receiver takes mutex_ inside
    // fail_all() — and the socket must be shut down (not just closed)
    // first so a receiver still blocked in recv wakes up. Closing the
    // fd waits until after the join: the receiver reads from the raw
    // fd, and closing early would let another thread reuse the number.
    if (reaping_) {
      return Error(ErrorCode::kUnavailable,
                   "channel to " + endpoint_.address + " reconnecting");
    }
    reaping_ = true;
    if (socket_.valid()) ::shutdown(socket_.get(), SHUT_RDWR);
    std::thread dead = std::move(receiver_);
    lock.unlock();
    if (dead.joinable()) dead.join();
    lock.lock();
    socket_.reset();
    broken_ = false;
    reaping_ = false;
    if (shutting_down_) {
      return Error(ErrorCode::kCancelled, "client shut down");
    }
  }
  if (socket_.valid()) return Status::Ok();
  auto dialed = connect_to(endpoint_, options_.connect_timeout_ms);
  if (!dialed.ok()) {
    if (dialed.error().code == ErrorCode::kUnavailable ||
        dialed.error().code == ErrorCode::kTimeout) {
      health_->record_failure();
    }
    return dialed.error();
  }
  socket_ = std::move(dialed).value();
  if (options_.recv_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = options_.recv_timeout_ms / 1000;
    tv.tv_usec = (options_.recv_timeout_ms % 1000) * 1000;
    ::setsockopt(socket_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  const int fd = socket_.get();
  receiver_ = std::thread([this, fd] { receiver_loop(fd); });
  return Status::Ok();
}

std::future<Result<Bytes>> AsyncRpcClient::call_async(uint16_t opcode,
                                                      const Bytes& request) {
  auto pending = std::make_shared<Pending>();
  std::future<Result<Bytes>> fut = pending->promise.get_future();

  auto fail_now = [&](Error error) {
    pending->promise.set_value(Result<Bytes>(std::move(error)));
    return std::move(fut);
  };
  if (request.size() > kMaxFrame) {
    return fail_now(
        Error(ErrorCode::kInvalidArgument, "request exceeds max frame"));
  }

  std::unique_lock<std::mutex> lock(mutex_);
  if (shutting_down_) {
    return fail_now(Error(ErrorCode::kCancelled, "client shut down"));
  }
  if (!health_->allow_request()) {
    return fail_now(Error(ErrorCode::kUnavailable,
                          "circuit open for " + endpoint_.address));
  }
  if (Status s = ensure_connected_locked(lock); !s.ok()) {
    return fail_now(s.error());
  }

  // The span covers submission only (the response lands on the
  // receiver thread); completion latency is visible as the gap to the
  // caller's enclosing span.
  trace::Span span("rpc.async_send", opcode);

  FrameHeader header;
  header.payload_len = static_cast<uint32_t>(request.size());
  header.request_id = next_request_id_++;
  header.opcode = opcode;
  header.kind = FrameKind::kRequest;
  if (span.armed()) {
    header.has_trace = true;
    header.trace = trace::current_context();
  }
  pending_[header.request_id] = pending;

  uint8_t hdr[kMaxHeaderSize];
  const size_t hdr_len = encode_header(header, hdr);
  Status sent = fault::check(fault::Site::kRpcSend);
  if (sent.ok()) {
    sent = send_frame(socket_.get(), hdr, hdr_len, request.data(),
                      request.size());
  }
  if (!sent.ok()) {
    pending_.erase(header.request_id);
    broken_ = true;
    health_->record_failure();
    return fail_now(Error(ErrorCode::kUnavailable, sent.error().message));
  }
  return fut;
}

void AsyncRpcClient::receiver_loop(int fd) {
  for (;;) {
    uint8_t hdr[kHeaderSize];
    Status got = recv_all(fd, hdr, kHeaderSize);
    // One draw per response, as RpcClient draws one per call: an
    // injected recv fault loses this response and all others pending.
    if (got.ok()) got = fault::check(fault::Site::kRpcRecv);
    if (!got.ok()) {
      fail_all(Error(ErrorCode::kUnavailable,
                     "connection lost: " + got.error().message));
      return;
    }
    auto header = decode_header(hdr, kHeaderSize);
    if (!header.ok()) {
      fail_all(header.error());
      return;
    }
    if (header->has_trace) {
      // Responses are HVC1 today; consume a future traced response's
      // context rather than desyncing the stream.
      uint8_t tbuf[kTraceContextSize];
      got = recv_all(fd, tbuf, sizeof(tbuf));
      if (!got.ok()) {
        fail_all(Error(ErrorCode::kUnavailable, got.error().message));
        return;
      }
    }
    Bytes payload(header->payload_len);
    if (header->payload_len > 0) {
      got = recv_all(fd, payload.data(), payload.size());
      if (!got.ok()) {
        fail_all(Error(ErrorCode::kUnavailable, got.error().message));
        return;
      }
    }
    std::shared_ptr<Pending> pending;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = pending_.find(header->request_id);
      if (it != pending_.end()) {
        pending = it->second;
        pending_.erase(it);
      }
    }
    if (!pending) {
      HVAC_LOG_WARN("async response for unknown id " << header->request_id);
      continue;
    }
    // Any complete response — even a handler error — proves the
    // endpoint alive; keep its circuit closed.
    health_->record_success();
    if (header->status != ErrorCode::kOk) {
      WireReader r(payload);
      auto msg = r.get_string();
      pending->promise.set_value(Result<Bytes>(
          Error(header->status, msg.ok() ? *msg : "(no message)")));
    } else {
      pending->promise.set_value(Result<Bytes>(std::move(payload)));
    }
  }
}

void AsyncRpcClient::fail_all(const Error& error) {
  std::unordered_map<uint64_t, std::shared_ptr<Pending>> orphans;
  bool count_failure = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // A local shutdown() tears the socket down on purpose; only a
    // transport error against a live client counts against the
    // endpoint's breaker.
    count_failure = !shutting_down_ &&
                    (error.code == ErrorCode::kUnavailable ||
                     error.code == ErrorCode::kTimeout ||
                     error.code == ErrorCode::kProtocol);
    orphans.swap(pending_);
    broken_ = true;
  }
  if (count_failure) health_->record_failure();
  for (auto& [id, pending] : orphans) {
    pending->promise.set_value(Result<Bytes>(error));
  }
}

void AsyncRpcClient::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      // Second call: just make sure the receiver is reaped below.
    }
    shutting_down_ = true;
    if (socket_.valid()) {
      // Breaks the receiver out of recv_all.
      ::shutdown(socket_.get(), SHUT_RDWR);
    }
  }
  if (receiver_.joinable()) receiver_.join();
  fail_all(Error(ErrorCode::kCancelled, "client shut down"));
  std::lock_guard<std::mutex> lock(mutex_);
  socket_.reset();
}

size_t AsyncRpcClient::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size();
}

}  // namespace hvac::rpc
