// Low-overhead request tracing for the HVAC data path.
//
// A trace is a tree of spans identified by a 64-bit trace id; every
// span gets a 32-bit span id and remembers its parent. The active span
// lives in a thread-local, so instrumentation sites never pass context
// explicitly — a `Span` constructed while another span is active
// becomes its child, and a `Span` constructed with no trace active
// roots a fresh trace. Crossing a thread or a socket is explicit: the
// 16-byte `TraceContext` travels in the RPC frame header (see
// rpc/protocol.h) or inside a queued task, and `ScopedContext` adopts
// it on the far side so remote/deferred spans keep their parent.
//
// Finished spans are appended to fixed-size per-thread ring buffers
// (single producer, drained under a registry lock by `drain()`); a
// full ring drops the span and counts it — producers never block and
// never overwrite unread records, so drops are exact and visible in
// the metrics frame. Everything is off by default: with HVAC_TRACE
// unset or 0 a span site costs one relaxed atomic load.
//
// Environment:
//   HVAC_TRACE       1 enables tracing (default 0).
//   HVAC_TRACE_RING  per-thread ring capacity in spans (default 4096).
//   HVAC_SLOW_MS     when > 0, a finished *root* span slower than this
//                    prints its reconstructed span tree to stderr.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hvac::trace {

// Wire-visible context: exactly what HVC2 frames carry (16 bytes,
// little-endian: u64 trace_id, u32 parent_span_id, u32 flags).
struct TraceContext {
  uint64_t trace_id = 0;
  uint32_t parent_span_id = 0;
  uint32_t flags = 0;

  bool valid() const { return trace_id != 0; }
};

constexpr uint32_t kFlagSampled = 1u << 0;
constexpr size_t kTraceContextSize = 16;

// One finished span. `name` must be a string literal (rings store the
// pointer, not the bytes); `arg` is a span-specific detail — opcode for
// RPC spans, byte count for I/O spans, attempt number for retries.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t arg = 0;
  const char* name = nullptr;
  uint32_t span_id = 0;
  uint32_t parent_id = 0;
  uint32_t tid = 0;  // small per-thread index, stable for the thread's life
  uint32_t flags = 0;
};

namespace detail {
extern std::atomic<int> g_mode;  // -1 uninit, 0 off, 1 on
int init_mode();
}  // namespace detail

// True when tracing is on; first call reads HVAC_TRACE, later calls are
// one relaxed load. This is the only cost a span site pays when off.
inline bool enabled() {
  int mode = detail::g_mode.load(std::memory_order_relaxed);
  if (mode < 0) mode = detail::init_mode();
  return mode == 1;
}

uint64_t now_ns();  // CLOCK_MONOTONIC

// The context a child span (or an outgoing RPC) would inherit right
// now: {0,0,0} when tracing is off or no span is active.
TraceContext current_context();
uint64_t current_trace_id();
uint32_t current_span_id();

// RAII span. Roots a new trace when none is active; otherwise a child
// of the current active span. The record is pushed on destruction.
class Span {
 public:
  explicit Span(const char* name, uint64_t arg = 0) : name_(name), arg_(arg) {
    if (enabled()) begin();
  }
  ~Span() {
    if (armed_) finish();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool armed() const { return armed_; }
  uint32_t id() const { return span_id_; }
  void set_arg(uint64_t arg) { arg_ = arg; }

  // Ends the span without recording it (work that turned out to be
  // redone elsewhere, e.g. a declined reactor probe). Spans opened
  // under it must already be closed.
  void discard();

  // Zero-duration child of the current active span ("retry happened",
  // "meta cache miss"). No-op when tracing is off or no trace active.
  static void event(const char* name, uint64_t arg = 0);

 private:
  void begin();
  void finish();

  const char* name_;
  uint64_t arg_;
  uint64_t start_ns_ = 0;
  uint64_t prev_trace_ = 0;
  uint32_t prev_span_ = 0;
  uint32_t span_id_ = 0;
  bool armed_ = false;
  bool root_ = false;
};

// Adopts a context received from another thread or host: spans opened
// while this is in scope parent under `ctx.parent_span_id`. Restores
// the previous thread state on destruction. Invalid/empty contexts
// (or tracing off) make this a no-op.
class ScopedContext {
 public:
  explicit ScopedContext(const TraceContext& ctx);
  ~ScopedContext();
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  uint64_t prev_trace_ = 0;
  uint32_t prev_span_ = 0;
  bool armed_ = false;
};

// Records a span with explicit endpoints, parented under the current
// active span — for durations measured across threads after the fact
// (queue wait between submit and pop). No-op when no trace is active.
void emit(const char* name, uint64_t start_ns, uint64_t end_ns,
          uint64_t arg = 0);

// Consumes every buffered record from every ring (including rings of
// threads that have exited).
std::vector<SpanRecord> drain();

// Non-destructive read of the records buffered for one trace, oldest
// first. Used by the HVAC_SLOW_MS dump.
std::vector<SpanRecord> snapshot_trace(uint64_t trace_id);

struct Stats {
  uint64_t emitted = 0;        // records pushed into rings
  uint64_t dropped = 0;        // records lost to full rings
  uint64_t rings = 0;          // live per-thread rings
  uint64_t ring_capacity = 0;  // capacity of each ring, in spans
  uint64_t occupancy = 0;      // records currently buffered
};
Stats stats();

// Renders `spans` (one trace, any order) as an indented tree; exposed
// for the slow-request log and its tests.
std::string format_tree(const std::vector<SpanRecord>& spans);

// Test hook: force the enabled flag, ring capacity for rings created
// after this call, and the slow threshold (-1 leaves HVAC_SLOW_MS
// alone; 0 disables). Also resets the emitted/dropped counters.
void init_for_test(bool enabled, size_t ring_capacity, int64_t slow_ms = 0);

}  // namespace hvac::trace
