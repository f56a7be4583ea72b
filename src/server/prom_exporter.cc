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

// One label-free counter family. OpenMetrics: the family name carries
// no suffix; the sample is <name>_total.
void counter(std::string& o, const char* name, const char* help,
             uint64_t value) {
  put_family(o, name, "counter", help);
  o += name;
  o += "_total ";
  o += std::to_string(value);
  o += '\n';
}

void gauge(std::string& o, const char* name, const char* help,
           uint64_t value) {
  put_family(o, name, "gauge", help);
  o += name;
  o += ' ';
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

  counter(o, "hvac_cache_hits", "Reads served from the node-local cache",
          f.cache.hits);
  counter(o, "hvac_cache_misses", "Reads that required a PFS fetch",
          f.cache.misses);
  counter(o, "hvac_cache_dedup_waits",
          "First-reads coalesced onto an in-flight copy",
          f.cache.dedup_waits);
  counter(o, "hvac_cache_evictions", "Cache evictions", f.cache.evictions);
  counter(o, "hvac_cache_bytes_from_cache",
          "Bytes served from the node-local cache",
          f.cache.bytes_from_cache);
  counter(o, "hvac_cache_bytes_from_pfs", "Bytes read from the PFS",
          f.cache.bytes_from_pfs);
  counter(o, "hvac_cache_pfs_fallbacks",
          "Requests served directly from the PFS", f.cache.pfs_fallbacks);
  gauge(o, "hvac_open_fds", "Open remote file handles", f.open_fds);

  counter(o, "hvac_handle_cache_hits",
          "Reads served from a resident cache slab's fd",
          f.handle_cache.hits);
  counter(o, "hvac_handle_cache_misses",
          "Reads that opened an fd (write-back files, slabs past the "
          "fd budget)",
          f.handle_cache.misses);
  counter(o, "hvac_handle_cache_deferred_closes",
          "Cache slabs dropped while pinned", f.handle_cache.deferred_closes);
  gauge(o, "hvac_handle_cache_open", "Cache slab fds held",
        f.handle_cache.open);
  gauge(o, "hvac_handle_cache_pinned", "Cache slabs with a pinned fd",
        f.handle_cache.pinned);
  gauge(o, "hvac_handle_cache_capacity", "Store fd budget, in slabs",
        f.handle_cache.capacity);

  counter(o, "hvac_buffer_pool_leases", "Buffer-pool acquires",
          f.buffer_pool.leases);
  counter(o, "hvac_buffer_pool_hits", "Leases served from a free list",
          f.buffer_pool.pool_hits);
  counter(o, "hvac_buffer_pool_fallback_allocs",
          "Leases that hit the allocator", f.buffer_pool.fallback_allocs);
  counter(o, "hvac_buffer_pool_recycled", "Leases returned to a free list",
          f.buffer_pool.recycled);
  counter(o, "hvac_buffer_pool_dropped", "Leases freed (list full)",
          f.buffer_pool.dropped);

  counter(o, "hvac_readahead_issued",
          "Chunks requested ahead of the application", f.readahead.issued);
  counter(o, "hvac_readahead_consumed",
          "Reads served from a pending chunk", f.readahead.consumed);
  counter(o, "hvac_readahead_wasted", "Pending chunks discarded unread",
          f.readahead.wasted);

  counter(o, "hvac_resilience_breaker_opens", "Circuit-breaker opens",
          f.resilience.breaker_opens);
  counter(o, "hvac_resilience_breaker_closes", "Circuit-breaker closes",
          f.resilience.breaker_closes);
  counter(o, "hvac_resilience_breaker_probes", "Half-open probes",
          f.resilience.breaker_probes);
  counter(o, "hvac_resilience_breaker_shed",
          "Calls shed by an open breaker", f.resilience.breaker_shed);
  counter(o, "hvac_resilience_retries", "Idempotent call retries",
          f.resilience.retries);
  counter(o, "hvac_resilience_deadline_misses", "Per-call deadline misses",
          f.resilience.deadline_misses);
  counter(o, "hvac_resilience_server_shed",
          "Requests shed by server backpressure", f.resilience.server_shed);
  counter(o, "hvac_resilience_mover_rejects",
          "Fetches rejected by the mover queue", f.resilience.mover_rejects);
  counter(o, "hvac_resilience_drains", "Graceful drains",
          f.resilience.drains);
  counter(o, "hvac_resilience_drained_requests",
          "Requests completed during drain", f.resilience.drained_requests);
  counter(o, "hvac_resilience_faults_injected",
          "HVAC_FAULT harness activations", f.resilience.faults_injected);

  counter(o, "hvac_zerocopy_sendfile_sends", "sendfile response sends",
          f.zerocopy.sendfile_sends);
  counter(o, "hvac_zerocopy_splice_sends", "splice response sends",
          f.zerocopy.splice_sends);
  counter(o, "hvac_zerocopy_fallback_sends",
          "Extents staged through the pool", f.zerocopy.fallback_sends);
  counter(o, "hvac_zerocopy_sendfile_bytes", "Bytes sent via sendfile",
          f.zerocopy.sendfile_bytes);
  counter(o, "hvac_zerocopy_splice_bytes", "Bytes sent via splice",
          f.zerocopy.splice_bytes);
  counter(o, "hvac_zerocopy_short_resumes",
          "Partial kernel sends resumed in place", f.zerocopy.short_resumes);

  counter(o, "hvac_meta_cache_hits", "Client metadata-cache hits",
          f.meta_cache.hits);
  counter(o, "hvac_meta_cache_misses", "Client metadata-cache misses",
          f.meta_cache.misses);
  counter(o, "hvac_meta_cache_expired", "Metadata entries aged out",
          f.meta_cache.expired);
  counter(o, "hvac_meta_cache_invalidated",
          "Metadata entries dropped on failure", f.meta_cache.invalidated);

  counter(o, "hvac_trace_emitted", "Trace spans emitted", f.trace.emitted);
  counter(o, "hvac_trace_dropped", "Trace spans dropped (ring full)",
          f.trace.dropped);
  gauge(o, "hvac_trace_rings", "Per-thread trace rings", f.trace.rings);
  gauge(o, "hvac_trace_ring_capacity", "Trace ring capacity",
        f.trace.ring_capacity);
  gauge(o, "hvac_trace_occupancy", "Trace ring occupancy",
        f.trace.occupancy);

  // Reactor rows as one family per word, reactor index as a label.
  struct ReactorField {
    const char* name;
    const char* help;
    uint64_t core::ReactorStats::PerReactor::* member;
  };
  const ReactorField reactor_fields[] = {
      {"hvac_reactor_conns", "Connections accepted",
       &core::ReactorStats::PerReactor::conns},
      {"hvac_reactor_requests", "Requests dispatched",
       &core::ReactorStats::PerReactor::requests},
      {"hvac_reactor_steals", "Requests stolen from another reactor",
       &core::ReactorStats::PerReactor::steals},
      {"hvac_reactor_shed", "Requests shed by backpressure",
       &core::ReactorStats::PerReactor::shed},
      {"hvac_reactor_steal_backoffs", "Steal scans skipped by the throttle",
       &core::ReactorStats::PerReactor::steal_backoffs},
  };
  for (const ReactorField& rf : reactor_fields) {
    put_family(o, rf.name, "counter", rf.help);
    for (size_t i = 0; i < f.reactor.reactors.size(); ++i) {
      o += rf.name;
      o += "_total{reactor=\"";
      o += std::to_string(i);
      o += "\"} ";
      o += std::to_string(f.reactor.reactors[i].*(rf.member));
      o += '\n';
    }
  }

  counter(o, "hvac_write_back_writes", "kWrite ops acked", f.write_back.writes);
  counter(o, "hvac_write_back_bytes_written", "Bytes written back",
          f.write_back.bytes_written);
  counter(o, "hvac_write_back_fsyncs", "Durability barriers honored",
          f.write_back.fsyncs);
  counter(o, "hvac_write_back_flushed_files", "Files flushed to the PFS",
          f.write_back.flushed_files);
  counter(o, "hvac_write_back_flush_retries", "Flush retries",
          f.write_back.flush_retries);
  counter(o, "hvac_write_back_flush_failures", "Flush failures",
          f.write_back.flush_failures);
  counter(o, "hvac_write_back_write_through_sheds",
          "Handles shed to write-through", f.write_back.write_through_sheds);
  counter(o, "hvac_write_back_write_through_bytes",
          "Bytes written through to the PFS",
          f.write_back.write_through_bytes);
  gauge(o, "hvac_write_back_dirty_bytes", "Unflushed write-back bytes",
        f.write_back.dirty_bytes);
  gauge(o, "hvac_write_back_dirty_files", "Unflushed write-back files",
        f.write_back.dirty_files);
  gauge(o, "hvac_write_back_journal_records", "Journal depth in records",
        f.write_back.journal_records);
  gauge(o, "hvac_write_back_journal_bytes", "Journal depth in bytes",
        f.write_back.journal_bytes);
  gauge(o, "hvac_write_back_flush_queue_depth", "Flush queue depth",
        f.write_back.flush_queue_depth);
  gauge(o, "hvac_write_back_flush_inflight", "Flushes in flight",
        f.write_back.flush_inflight);
  gauge(o, "hvac_write_back_flush_lag_ms",
        "Age of the oldest unflushed file (ms)", f.write_back.flush_lag_ms);

  counter(o, "hvac_prefetch_planned", "Samples accepted into access plans",
          f.prefetch.planned);
  counter(o, "hvac_prefetch_issued", "Samples sent in prefetch batches",
          f.prefetch.issued);
  counter(o, "hvac_prefetch_completed", "Prefetches answered cached",
          f.prefetch.completed);
  counter(o, "hvac_prefetch_shed", "Prefetches shed by mover backpressure",
          f.prefetch.shed);
  counter(o, "hvac_prefetch_late", "Samples the cursor beat the prefetch to",
          f.prefetch.late);
  counter(o, "hvac_prefetch_hit_after",
          "Samples found warmed by their prefetch",
          f.prefetch.hit_after_prefetch);
  counter(o, "hvac_prefetch_deduped",
          "Mover fetches coalesced onto an in-flight one",
          f.prefetch.deduped);
  gauge(o, "hvac_prefetch_dedup_inflight", "Paths with a fetch in flight",
        f.prefetch.dedup_inflight);

  // Stall attribution: seconds per bucket, summed over the epoch
  // window (the per-epoch rows stay in the frame/JSON surfaces).
  {
    uint64_t reads = 0;
    double by_bucket[5] = {};
    for (const core::StallEpochRow& e : f.stall.epochs) {
      reads += e.reads;
      by_bucket[0] += double(e.local_hit_ns) / 1e9;
      by_bucket[1] += double(e.remote_rpc_ns) / 1e9;
      by_bucket[2] += double(e.pfs_wait_ns) / 1e9;
      by_bucket[3] += double(e.backpressure_ns) / 1e9;
      by_bucket[4] += double(e.retry_ns) / 1e9;
    }
    counter(o, "hvac_stall_reads", "Intercepted reads attributed", reads);
    put_family(o, "hvac_stall_seconds", "counter",
               "Intercepted-read wall time by stall bucket");
    const char* names[5] = {"local_hit", "remote_rpc", "pfs_wait",
                            "backpressure", "retry"};
    for (size_t b = 0; b < 5; ++b) {
      o += "hvac_stall_seconds_total{bucket=\"";
      o += names[b];
      o += "\"} ";
      fmt_double(o, by_bucket[b]);
      o += '\n';
    }
  }

  // Per-op handler latency as a native histogram family. Bucket i of
  // the log2 histogram covers [2^i, 2^(i+1)) ns, so its cumulative
  // upper bound is 2^(i+1) ns rendered in seconds.
  put_family(o, "hvac_op_latency_seconds", "histogram",
             "Per-op handler latency");
  for (const auto& [op, snap] : f.op_latency) {
    const std::string op_label = core::op_name(op);
    uint64_t cumulative = 0;
    for (size_t i = 0; i < core::kLatencyBuckets; ++i) {
      cumulative += snap.buckets[i];
      o += "hvac_op_latency_seconds_bucket{op=\"";
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
    o += "hvac_op_latency_seconds_sum{op=\"";
    o += op_label;
    o += "\"} ";
    fmt_double(o, double(snap.total_ns) / 1e9);
    o += '\n';
    o += "hvac_op_latency_seconds_count{op=\"";
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
