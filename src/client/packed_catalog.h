// PackedCatalog — the client's cached copy of the dataset's
// packed-container index (storage/packed_format.h).
//
// The first open of a packed-eligible path pays ONE kPackedIndex round
// trip; every open/stat after that resolves locally from the decoded
// index, so packed samples cost zero metadata RPCs (the FanStore
// technique the paper cites for small-file workloads). The answer —
// present or absent — is cached with a TTL so a dataset packed while
// the job runs is picked up within one TTL, and a server that has no
// index is not re-asked on every open. Fetch failures fail open: the
// catalog reports "not packed" and the regular per-file path serves.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/packed_format.h"

namespace hvac::client {

class PackedCatalog {
 public:
  // A packed sample resolved against the cached index: the container's
  // logical path (its placement key) and the sample's extent within it.
  struct Resolved {
    std::string container_logical;
    uint64_t base = 0;
    uint64_t length = 0;
  };

  // Fetches the raw index bytes from a server; nullopt when the server
  // has no packed index for the dataset.
  using FetchFn =
      std::function<Result<std::optional<std::vector<uint8_t>>>()>;

  // How long a fetched answer stays fresh before the next resolve
  // re-fetches it (single-flight), so a re-pack is picked up.
  static constexpr int64_t kTtlMs = 30000;

  // Resolves `logical` against the index, fetching (or re-fetching,
  // after the TTL) via `fetch` first when needed. Concurrent callers
  // serialize on the fetch so the index is pulled once, not per open.
  std::optional<Resolved> resolve(const std::string& logical,
                                  const FetchFn& fetch);

  // Drops the cached index so the next resolve re-fetches (used when
  // the serving endpoint turns out to be unreachable).
  void invalidate();

  // Observability for tests: how many fetches actually went out.
  uint64_t fetches() const;

 private:
  enum class State { kUnknown, kPresent, kAbsent };

  bool fresh_locked() const;

  mutable std::mutex mutex_;
  State state_ = State::kUnknown;
  int64_t fetched_at_ms_ = 0;
  uint64_t fetches_ = 0;
  storage::PackedIndex index_;
};

}  // namespace hvac::client
