// Deterministic fault-injection harness.
//
// The ROADMAP north-star ("handle as many scenarios as you can
// imagine") needs a way to *provoke* failures on demand: a recv that
// errors 1% of the time, an open that stalls 50 ms, a PFS that starts
// returning EIO mid-epoch. Faults are declared in the HVAC_FAULT
// environment variable and evaluated at fixed hook points (sites)
// compiled into the transport, the local store and the PFS backend:
//
//   HVAC_FAULT="rpc_recv:error:0.01;open:delay_ms=50:seed=7"
//
// Grammar: rules separated by ';', each rule `site:action[:token]*`.
//   site    rpc_connect | rpc_send | rpc_recv | open | read | stat |
//           store_read | pfs_read | zc_send |
//           journal_append | journal_fsync | store_write | pfs_write |
//           write_barrier
//   action  error            inject kIoError
//           error=CODE       CODE in {unavailable, timeout, io,
//                            not_found, capacity, protocol}
//           delay_ms=N       sleep N ms, then continue
//           short=N          cap one kernel transfer at N bytes
//                            (cap_len site only: zc_send — forces
//                            the short-sendfile resume loop)
//   tokens  a bare float     probability of firing (default 1.0)
//           seed=N           decision-stream seed (default 0)
//           after=N          skip the first N checks of this rule
//           count=N          fire at most N times
//
// Determinism: the k-th check of a rule draws from
// SplitMix64(seed + k), so a fixed spec yields the same injected
// sequence on every run regardless of wall clock or ASLR — chaos
// tests can replay an exact failure schedule.
//
// Cost when unset: `check()` is one relaxed atomic load and a
// predictable branch; no rule parsing, no RNG, no lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/result.h"

namespace hvac::fault {

enum class Site : uint8_t {
  kRpcConnect = 0,
  kRpcSend,
  kRpcRecv,
  kOpen,
  kRead,
  kStat,
  kStoreRead,
  kPfsRead,
  kZcSend,    // sendfile() leg of the zero-copy response path
  kJournalAppend,  // write-ahead journal record append
  kJournalFsync,   // journal commit-barrier fdatasync
  kStoreWrite,     // write-back store pwrite on local NVMe
  kPfsWrite,       // flusher's copy-out to the PFS
  kWriteBarrier,   // barrier: file data synced, size not yet journaled
  kCount,  // sentinel
};

const char* site_name(Site site);

namespace detail {
extern std::atomic<bool> g_enabled;
Status inject(Site site);
size_t cap(Site site, size_t want);
}  // namespace detail

// True when any fault rule is active.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

// Hook point: call at the top of an operation. Returns the injected
// error (if a matching `error` rule fires), after applying any
// matching `delay_ms` rules. The fast path when no spec is configured
// is a single relaxed load.
inline Status check(Site site) {
  if (!detail::g_enabled.load(std::memory_order_relaxed)) {
    return Status::Ok();
  }
  return detail::inject(site);
}

// Transfer-length hook for the zero-copy send loop: returns the byte
// budget for one kernel transfer — `want`, or less when a matching
// `short=N` rule fires. The resume loop around sendfile must deliver
// every byte regardless of how small the cap is.
inline size_t cap_len(Site site, size_t want) {
  if (!detail::g_enabled.load(std::memory_order_relaxed)) {
    return want;
  }
  return detail::cap(site, want);
}

// Installs a spec, replacing any previous one. An empty spec disables
// injection entirely. kInvalidArgument on a malformed spec.
Status configure(const std::string& spec);

// Reads HVAC_FAULT once per process (idempotent, thread-safe). Safe
// to call from the shim bootstrap: no static-initialization-order
// hazards, allocation happens only when the variable is set.
void init_from_env();

// Per-site observability (totals since the last configure/reset).
struct SiteStats {
  uint64_t checks = 0;
  uint64_t errors = 0;
  uint64_t delays = 0;
  uint64_t shorts = 0;  // transfers capped by a short=N rule
};
SiteStats stats(Site site);

// Sum of `errors` + `delays` over all sites.
uint64_t total_injected();

// Drops the active spec and zeroes all counters (tests).
void reset();

}  // namespace hvac::fault
