// Client-side TTL cache of per-file metadata.
//
// DL training re-opens the same sample files every epoch; without a
// metadata service (paper §III-E) each re-open still pays a stat/open
// round trip just to re-learn what the client already knew: the file's
// size, its home server, and whether that server holds a cached copy.
// This cache remembers {size, home, cached, slab} per logical path for
// a short TTL (HVAC_META_TTL_MS), so a fresh entry lets open() hand out
// a fd with zero round trips — reads address the file by path via
// kReadScatter, or are preads on the slab the client still holds.
//
// Staleness is bounded three ways: the TTL, explicit invalidation on
// any transport-level failure touching the path, and a breaker check
// at use time (a tripped home makes every entry pointing at it
// unusable — see HvacClient::meta_lookup). Entries are advisory: a
// server that evicted the file since we cached "cached=true" simply
// serves the scatter read through its PFS path, so a stale entry
// costs latency, never correctness.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/fd_table.h"

namespace hvac::client {

struct MetaEntry {
  uint64_t size = 0;
  uint32_t home = 0;   // server index that served the file last
  bool cached = false;  // home held a node-local copy at lookup time
  // The cache slab the home named for the file (DESIGN.md §20) and the
  // file's offset in it. A re-open reads through that very fd while the
  // client still holds it; once the fd is gone its inode number may
  // name another slab, so the entry keeps the fd, weakly, not the
  // number.
  bool in_slab = false;
  std::weak_ptr<core::SlabFd> slab;
  uint64_t base = 0;
};

class MetaCache {
 public:
  // ttl_ms <= 0 disables the cache (every lookup misses, puts are
  // dropped).
  explicit MetaCache(int64_t ttl_ms);

  bool enabled() const { return ttl_ms_ > 0; }

  // Fresh entry or nullopt. Expired entries are erased on the way out
  // (and counted in MetaCacheCounters::expired).
  std::optional<MetaEntry> lookup(const std::string& logical);

  void put(const std::string& logical, const MetaEntry& entry);

  // Drops one path (transport failure touching it).
  void invalidate(const std::string& logical);

  // Drops every entry homed at `home` (its breaker tripped: nothing
  // we remember about that server is actionable until it recovers).
  void invalidate_home(uint32_t home);

  size_t size() const;

 private:
  struct Slot {
    MetaEntry meta;
    int64_t expires_ms = 0;
  };

  const int64_t ttl_ms_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Slot> map_;
};

}  // namespace hvac::client
