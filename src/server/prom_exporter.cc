#include "server/prom_exporter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/log.h"
#include "core/metrics_schema.h"

namespace hvac::server {

namespace {

void put_family(std::string& o, const char* name, const char* type,
                const char* help) {
  o += "# HELP ";
  o += name;
  o += ' ';
  o += help;
  o += "\n# TYPE ";
  o += name;
  o += ' ';
  o += type;
  o += '\n';
}

// One label-free family. OpenMetrics: the family name carries no
// suffix; a counter's sample is <name>_total.
void scalar(std::string& o, const char* name, const char* help,
            bool counter, uint64_t value) {
  put_family(o, name, counter ? "counter" : "gauge", help);
  o += name;
  o += counter ? "_total " : " ";
  o += std::to_string(value);
  o += '\n';
}

void fmt_double(std::string& o, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  o += buf;
}

}  // namespace

std::string render_openmetrics(const core::MetricsFrame& f) {
  std::string o;
  o.reserve(16384);

  for (const core::FieldSpec& field : core::frame_fields()) {
    scalar(o, field.prom, field.help,
           field.kind == core::FieldKind::kCounter, field.get(f));
  }

  // Reactor rows as one family per word, reactor index as a label.
  for (const core::ReactorField& field : core::reactor_fields()) {
    put_family(o, field.prom, "counter", field.help);
    for (size_t i = 0; i < f.reactor.reactors.size(); ++i) {
      o += field.prom;
      o += "_total{reactor=\"";
      o += std::to_string(i);
      o += "\"} ";
      o += std::to_string(f.reactor.reactors[i].*field.member);
      o += '\n';
    }
  }

  // Stall attribution: seconds per bucket, summed over the epoch
  // window (the per-epoch rows stay in the frame/JSON surfaces).
  uint64_t reads = 0;
  for (const core::StallEpochRow& e : f.stall.epochs) reads += e.reads;
  scalar(o, core::kStallReadsFamily, "Intercepted reads attributed", true,
         reads);
  put_family(o, core::kStallSecondsFamily, "counter",
             "Intercepted-read wall time by stall bucket");
  for (const core::StallField& field : core::stall_fields()) {
    if (field.bucket == nullptr) continue;
    double seconds = 0;
    for (const core::StallEpochRow& e : f.stall.epochs) {
      seconds += double(e.*field.member) / 1e9;
    }
    o += core::kStallSecondsFamily;
    o += "_total{bucket=\"";
    o += field.bucket;
    o += "\"} ";
    fmt_double(o, seconds);
    o += '\n';
  }

  // Per-op handler latency as a native histogram family. Bucket i of
  // the log2 histogram covers [2^i, 2^(i+1)) ns, so its cumulative
  // upper bound is 2^(i+1) ns rendered in seconds.
  put_family(o, core::kOpLatencyFamily, "histogram",
             "Per-op handler latency");
  for (const auto& [op, snap] : f.op_latency) {
    const std::string op_label = core::op_name(op);
    uint64_t cumulative = 0;
    for (size_t i = 0; i < core::kLatencyBuckets; ++i) {
      cumulative += snap.buckets[i];
      o += core::kOpLatencyFamily;
      o += "_bucket{op=\"";
      o += op_label;
      o += "\",le=\"";
      if (i + 1 >= core::kLatencyBuckets) {
        o += "+Inf";
      } else {
        fmt_double(o, double(uint64_t{1} << (i + 1)) / 1e9);
      }
      o += "\"} ";
      o += std::to_string(cumulative);
      o += '\n';
    }
    o += core::kOpLatencyFamily;
    o += "_sum{op=\"";
    o += op_label;
    o += "\"} ";
    fmt_double(o, double(snap.total_ns) / 1e9);
    o += '\n';
    o += core::kOpLatencyFamily;
    o += "_count{op=\"";
    o += op_label;
    o += "\"} ";
    o += std::to_string(snap.count);
    o += '\n';
  }

  o += "# EOF\n";
  return o;
}

PromExporter::PromExporter(uint16_t port, FrameSource source)
    : source_(std::move(source)), requested_port_(port) {}

PromExporter::~PromExporter() { stop(); }

Status PromExporter::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Error::from_errno(errno, "prom exporter socket");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(requested_port_);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Error::from_errno(err, "prom exporter bind");
  }
  if (::listen(listen_fd_, 16) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Error::from_errno(err, "prom exporter listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { serve_loop(); });
  return Status::Ok();
}

void PromExporter::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void PromExporter::serve_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int n = ::poll(&pfd, 1, 200);
    if (n <= 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    handle_connection(fd);
    ::close(fd);
  }
}

void PromExporter::handle_connection(int fd) {
  // One request per connection; read until the header terminator or
  // a short deadline, whichever first. Scrapers send tiny requests.
  std::string req;
  char buf[2048];
  for (int rounds = 0; rounds < 8; ++rounds) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 500) <= 0) break;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    req.append(buf, static_cast<size_t>(n));
    if (req.find("\r\n\r\n") != std::string::npos || req.size() > 8192) break;
  }
  std::string body;
  std::string head;
  const bool is_metrics = req.rfind("GET /metrics", 0) == 0;
  if (is_metrics) {
    body = render_openmetrics(source_());
    head = "HTTP/1.1 200 OK\r\n"
           "Content-Type: application/openmetrics-text; version=1.0.0; "
           "charset=utf-8\r\n";
  } else {
    body = "not found\n";
    head = "HTTP/1.1 404 Not Found\r\n"
           "Content-Type: text/plain; charset=utf-8\r\n";
  }
  head += "Content-Length: " + std::to_string(body.size()) +
          "\r\nConnection: close\r\n\r\n";
  const std::string resp = head + body;
  size_t off = 0;
  while (off < resp.size()) {
    const ssize_t n = ::send(fd, resp.data() + off, resp.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
}

}  // namespace hvac::server
