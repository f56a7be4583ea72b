// Server-side view of a packed dataset (see packed_format.h).
//
// Loaded once at server start from `<pfs_root>/.hvacpack/`: holds the
// raw index bytes (served verbatim to clients over kPackedIndex) and
// the decoded lookup table. resolve() turns a logical sample path
// into (container logical path, base offset, length); the server then
// serves the read out of the container through the regular cache
// machinery — DataMover fetch, LocalStore pin,
// sendfile ladder — so a whole packed dataset costs one open(2) per
// container, not one per sample.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/packed_format.h"

namespace hvac::storage {

class PackedStore {
 public:
  struct Resolved {
    std::string container_logical;  // e.g. ".hvacpack/container_00000.blob"
    uint64_t base = 0;              // sample's byte offset in the container
    uint64_t length = 0;            // sample length
  };

  // Loads `<root>/.hvacpack/index.hvacpack`. Returns nullptr (ok) when
  // the dataset simply is not packed; an error only when an index
  // exists but is unreadable or corrupt.
  static Result<std::unique_ptr<PackedStore>> load(const std::string& root);

  std::optional<Resolved> resolve(const std::string& logical_path) const;
  bool contains(const std::string& logical_path) const {
    return resolve(logical_path).has_value();
  }

  // The on-disk index bytes, byte-identical to what decode() consumed;
  // kPackedIndex ships these to clients verbatim.
  const std::vector<uint8_t>& raw_index() const { return raw_; }

  size_t sample_count() const { return index_.entries.size(); }
  size_t container_count() const { return index_.container_sizes.size(); }
  const PackedIndex& index() const { return index_; }

 private:
  PackedStore(std::vector<uint8_t> raw, PackedIndex index);

  std::vector<uint8_t> raw_;
  PackedIndex index_;
  // container_id -> logical path, precomputed (resolve is on the read
  // hot path).
  std::vector<std::string> container_logicals_;
};

}  // namespace hvac::storage
