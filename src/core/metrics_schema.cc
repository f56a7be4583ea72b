#include "core/metrics_schema.h"

namespace hvac::core {

namespace {

using enum FieldKind;
using enum FieldScope;

// One row: wire section `sec`, JSON object `group`, u64 `field` of
// struct `MetricsFrame::member` (the field name is also the JSON key).
#define HVAC_ROW(sec, group, member, field, prom, kind, scope, help) \
  {sec, group, #field, prom, kind, scope, help,                     \
   [](MetricsFrame& f) -> uint64_t& { return f.member.field; }}

// A section's rows; the OpenMetrics family is the section's prefix
// plus the field name.
#define CACHE(field, ...) \
  HVAC_ROW(kV1Prefix, "cache", cache, field, "hvac_cache_" #field, __VA_ARGS__)
#define HANDLE_CACHE(field, ...)                                      \
  HVAC_ROW(kSectionHandleCache, "handle_cache", handle_cache, field, \
           "hvac_handle_cache_" #field, __VA_ARGS__)
#define BUFFER_POOL(field, ...)                                    \
  HVAC_ROW(kSectionBufferPool, "buffer_pool", buffer_pool, field, \
           "hvac_buffer_pool_" #field, __VA_ARGS__)
#define READ_AHEAD(field, ...)                                \
  HVAC_ROW(kSectionReadAhead, "read_ahead", readahead, field, \
           "hvac_readahead_" #field, __VA_ARGS__)
#define RESILIENCE(field, ...)                                  \
  HVAC_ROW(kSectionResilience, "resilience", resilience, field, \
           "hvac_resilience_" #field, __VA_ARGS__)
#define ZERO_COPY(field, ...)                              \
  HVAC_ROW(kSectionZeroCopy, "zero_copy", zerocopy, field, \
           "hvac_zerocopy_" #field, __VA_ARGS__)
#define TRACE(field, ...)                                              \
  HVAC_ROW(kSectionTrace, "trace", trace, field, "hvac_trace_" #field, \
           __VA_ARGS__)
#define WRITE_BACK(field, ...)                                 \
  HVAC_ROW(kSectionWriteBack, "write_back", write_back, field, \
           "hvac_write_back_" #field, __VA_ARGS__)
#define PREFETCH(field, ...)                               \
  HVAC_ROW(kSectionPrefetch, "prefetch", prefetch, field, \
           "hvac_prefetch_" #field, __VA_ARGS__)

const FieldSpec kFrameFields[] = {
    CACHE(hits, kCounter, kInstance, "Reads served from the node-local cache"),
    CACHE(misses, kCounter, kInstance, "Reads that required a PFS fetch"),
    CACHE(dedup_waits, kCounter, kInstance,
          "First-reads coalesced onto an in-flight copy"),
    CACHE(evictions, kCounter, kInstance, "Cache evictions"),
    CACHE(bytes_from_cache, kCounter, kInstance,
          "Bytes served from the node-local cache"),
    CACHE(bytes_from_pfs, kCounter, kInstance, "Bytes read from the PFS"),
    CACHE(pfs_fallbacks, kCounter, kInstance,
          "Requests served directly from the PFS"),
    {kV1Prefix, "", "open_fds", "hvac_open_fds", kGauge, kInstance,
     "Open remote file handles",
     [](MetricsFrame& f) -> uint64_t& { return f.open_fds; }},

    HANDLE_CACHE(hits, kCounter, kInstance,
                 "Reads served from a resident cache slab's fd"),
    HANDLE_CACHE(misses, kCounter, kInstance,
                 "Reads that opened an fd (write-back files, slabs past the "
                 "fd budget)"),
    HANDLE_CACHE(open, kGauge, kInstance, "Cache slab fds held"),
    HANDLE_CACHE(pinned, kGauge, kInstance, "Cache slabs with a pinned fd"),
    HANDLE_CACHE(deferred_closes, kCounter, kInstance,
                 "Cache slabs dropped while pinned"),
    // Every store's budget is the one LocalStore::process_fd_budget().
    HANDLE_CACHE(capacity, kGauge, kProcess, "Store fd budget, in slabs"),

    BUFFER_POOL(leases, kCounter, kProcess, "Buffer-pool acquires"),
    HVAC_ROW(kSectionBufferPool, "buffer_pool", buffer_pool, pool_hits,
             "hvac_buffer_pool_hits", kCounter, kProcess,
             "Leases served from a free list"),
    BUFFER_POOL(fallback_allocs, kCounter, kProcess,
                "Leases that hit the allocator"),
    BUFFER_POOL(recycled, kCounter, kProcess, "Leases returned to a free list"),
    BUFFER_POOL(dropped, kCounter, kProcess, "Leases freed (list full)"),

    READ_AHEAD(issued, kCounter, kProcess,
               "Chunks requested ahead of the application"),
    READ_AHEAD(consumed, kCounter, kProcess,
               "Reads served from a pending chunk"),
    READ_AHEAD(wasted, kCounter, kProcess, "Pending chunks discarded unread"),

    RESILIENCE(breaker_opens, kCounter, kProcess, "Circuit-breaker opens"),
    RESILIENCE(breaker_closes, kCounter, kProcess, "Circuit-breaker closes"),
    RESILIENCE(breaker_probes, kCounter, kProcess, "Half-open probes"),
    RESILIENCE(breaker_shed, kCounter, kProcess,
               "Calls shed by an open breaker"),
    RESILIENCE(retries, kCounter, kProcess, "Idempotent call retries"),
    RESILIENCE(deadline_misses, kCounter, kProcess, "Per-call deadline misses"),
    RESILIENCE(server_shed, kCounter, kProcess,
               "Requests shed by server backpressure"),
    RESILIENCE(mover_rejects, kCounter, kProcess,
               "Fetches rejected by the mover queue"),
    RESILIENCE(drains, kCounter, kProcess, "Graceful drains"),
    RESILIENCE(drained_requests, kCounter, kProcess,
               "Requests completed during drain"),
    RESILIENCE(faults_injected, kCounter, kProcess,
               "HVAC_FAULT harness activations"),

    ZERO_COPY(sendfile_sends, kCounter, kProcess, "sendfile response sends"),
    ZERO_COPY(sendfile_bytes, kCounter, kProcess, "Bytes sent via sendfile"),
    ZERO_COPY(short_resumes, kCounter, kProcess,
              "Partial kernel sends resumed in place"),
    ZERO_COPY(fd_passes, kCounter, kProcess,
              "Read-only cache fds passed to local clients"),
    ZERO_COPY(fd_pass_bytes, kCounter, kProcess,
              "Bytes of the files whose cache fds were passed"),

    TRACE(emitted, kCounter, kProcess, "Trace spans emitted"),
    TRACE(dropped, kCounter, kProcess, "Trace spans dropped (ring full)"),
    TRACE(rings, kGauge, kProcess, "Per-thread trace rings"),
    TRACE(ring_capacity, kGauge, kProcess, "Trace ring capacity"),
    TRACE(occupancy, kGauge, kProcess, "Trace ring occupancy"),

    WRITE_BACK(writes, kCounter, kInstance, "kWrite ops acked"),
    WRITE_BACK(bytes_written, kCounter, kInstance, "Bytes written back"),
    WRITE_BACK(fsyncs, kCounter, kInstance, "Durability barriers honored"),
    WRITE_BACK(dirty_bytes, kGauge, kInstance, "Unflushed write-back bytes"),
    WRITE_BACK(dirty_files, kGauge, kInstance, "Unflushed write-back files"),
    WRITE_BACK(journal_records, kGauge, kInstance, "Journal depth in records"),
    WRITE_BACK(journal_bytes, kGauge, kInstance, "Journal depth in bytes"),
    WRITE_BACK(flushed_files, kCounter, kInstance, "Files flushed to the PFS"),
    WRITE_BACK(flush_retries, kCounter, kInstance, "Flush retries"),
    WRITE_BACK(flush_failures, kCounter, kInstance, "Flush failures"),
    WRITE_BACK(flush_queue_depth, kGauge, kInstance, "Flush queue depth"),
    WRITE_BACK(flush_inflight, kGauge, kInstance, "Flushes in flight"),
    WRITE_BACK(flush_lag_ms, kMaxGauge, kInstance,
               "Age of the oldest unflushed file (ms)"),
    WRITE_BACK(write_through_sheds, kCounter, kInstance,
               "Handles shed to write-through"),
    WRITE_BACK(write_through_bytes, kCounter, kInstance,
               "Bytes written through to the PFS"),
    // The last restart's journal replay: a fact, not a flow.
    WRITE_BACK(replay_writes, kGauge, kInstance,
               "Committed sizes the last journal replay honoured"),
    WRITE_BACK(replay_bytes, kGauge, kInstance,
               "Committed bytes the last journal replay re-queued"),
    WRITE_BACK(replay_truncated_bytes, kGauge, kInstance,
               "Torn or CRC-bad journal tail bytes the last replay cut"),
    WRITE_BACK(replay_dirty_files, kGauge, kInstance,
               "Files the last replay re-queued to the flusher"),
    WRITE_BACK(local_write_bytes, kCounter, kInstance,
               "Checkpoint bytes written into node-local files"),

    // Plan, issue and pacing words are the process's scheduler; the
    // dedup words are this instance's mover.
    PREFETCH(planned, kCounter, kProcess, "Samples accepted into access plans"),
    PREFETCH(issued, kCounter, kProcess, "Samples sent in prefetch batches"),
    PREFETCH(completed, kCounter, kProcess, "Prefetches answered cached"),
    PREFETCH(shed, kCounter, kProcess, "Prefetches shed by mover backpressure"),
    PREFETCH(late, kCounter, kProcess,
             "Samples the cursor beat the prefetch to"),
    HVAC_ROW(kSectionPrefetch, "prefetch", prefetch, hit_after_prefetch,
             "hvac_prefetch_hit_after", kCounter, kProcess,
             "Samples found warmed by their prefetch"),
    PREFETCH(deduped, kCounter, kInstance,
             "Mover fetches coalesced onto an in-flight one"),
    PREFETCH(dedup_inflight, kGauge, kInstance, "Paths with a fetch in flight"),
};

#undef CACHE
#undef HANDLE_CACHE
#undef BUFFER_POOL
#undef READ_AHEAD
#undef RESILIENCE
#undef ZERO_COPY
#undef TRACE
#undef WRITE_BACK
#undef PREFETCH
#undef HVAC_ROW

using Reactor = ReactorStats::PerReactor;
const ReactorField kReactorFields[] = {
    {"conns", "hvac_reactor_conns", "Connections accepted", &Reactor::conns},
    {"requests", "hvac_reactor_requests", "Requests dispatched",
     &Reactor::requests},
    {"steals", "hvac_reactor_steals", "Requests stolen from another reactor",
     &Reactor::steals},
    {"shed", "hvac_reactor_shed", "Requests shed by backpressure",
     &Reactor::shed},
    {"steal_backoffs", "hvac_reactor_steal_backoffs",
     "Steal scans skipped by the throttle", &Reactor::steal_backoffs},
    {"local_conns", "hvac_reactor_local_conns",
     "Connections accepted over the node-local alias", &Reactor::local_conns},
};

const StallField kStallFields[] = {
    {"epoch", false, nullptr, &StallEpochRow::epoch},
    {"reads", false, nullptr, &StallEpochRow::reads},
    {"stall_s", true, nullptr, &StallEpochRow::total_ns},
    {"local_hit_s", true, "local_hit", &StallEpochRow::local_hit_ns},
    {"remote_rpc_s", true, "remote_rpc", &StallEpochRow::remote_rpc_ns},
    {"pfs_wait_s", true, "pfs_wait", &StallEpochRow::pfs_wait_ns},
    {"backpressure_s", true, "backpressure", &StallEpochRow::backpressure_ns},
    {"retry_s", true, "retry", &StallEpochRow::retry_ns},
};

}  // namespace

std::span<const FieldSpec> frame_fields() { return kFrameFields; }
std::span<const ReactorField> reactor_fields() { return kReactorFields; }
std::span<const StallField> stall_fields() { return kStallFields; }

std::vector<std::string> openmetrics_families() {
  std::vector<std::string> out;
  for (const FieldSpec& field : frame_fields()) out.push_back(field.prom);
  for (const ReactorField& field : reactor_fields()) out.push_back(field.prom);
  out.push_back(kStallReadsFamily);
  out.push_back(kStallSecondsFamily);
  out.push_back(kOpLatencyFamily);
  return out;
}

}  // namespace hvac::core
