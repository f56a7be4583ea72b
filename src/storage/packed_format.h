// Packed container format for small-file workloads (FanStore-style).
//
// ImageNet-21k-scale training is a metadata storm: millions of tiny
// files, each costing one open RPC and one PFS metadata round trip.
// The packed format kills the storm at the source: `hvacctl pack`
// concatenates every sample of a dataset tree into a handful of large
// container blobs and writes one compact binary index mapping each
// sample's path hash to {container, offset, length}. Servers resolve
// sample paths through the index and serve reads by offset out of the
// container — a thousand-sample batch costs one cached container
// handle instead of a thousand opens — and clients that fetched the
// index answer open/stat locally with zero round trips.
//
// Everything lives under `<dataset>/.hvacpack/`:
//
//   .hvacpack/index.hvacpack        the binary index (layout below)
//   .hvacpack/container_00000.blob  container 0
//   .hvacpack/container_00001.blob  container 1 ...
//
// Containers are ordinary PFS files addressed by those logical paths,
// so the existing cache machinery (DataMover fetch, LocalStore,
// pinned fds, sendfile ladder) serves them unchanged.
//
// Index layout (little-endian, same byte order as rpc/wire.h; the
// on-disk bytes are also the kPackedIndex RPC payload, verbatim):
//
//   u32 magic      'HVPK'
//   u16 version    1
//   u16 reserved   0
//   u32 container_count
//   u64 entry_count
//   u64 * container_count          container sizes in bytes
//   entry * entry_count            sorted strictly by path_hash:
//     u64 path_hash                stable_hash(logical sample path)
//     u32 container_id
//     u64 offset                   byte offset inside the container
//     u64 length                   sample length in bytes
//   u64 checksum   fnv1a64 over every preceding byte
//
// Decode rejects truncation, bad magic/version, checksum mismatch,
// unsorted or duplicate hashes, container ids out of range, and
// extents that leave their container — a corrupt index must surface
// as kProtocol, never as a wild server-side pread.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"

namespace hvac::storage {

constexpr uint32_t kPackedIndexMagic = 0x4B505648;  // "HVPK"
constexpr uint16_t kPackedIndexVersion = 1;

// Logical (dataset-relative) names of the pack artifacts.
std::string packed_dir_name();                     // ".hvacpack"
std::string packed_index_logical();                // ".hvacpack/index.hvacpack"
std::string packed_container_logical(uint32_t id); // ".hvacpack/container_%05u.blob"

struct PackedEntry {
  uint64_t path_hash = 0;  // stable_hash of the logical sample path
  uint32_t container_id = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
};

class PackedIndex {
 public:
  // Entries must be sorted strictly by path_hash (build() enforces).
  std::vector<uint64_t> container_sizes;
  std::vector<PackedEntry> entries;

  // Sorts entries and validates (duplicate hashes between *different*
  // paths are a fatal pack-time collision; the caller passes the
  // original paths so the error can name them).
  static Result<PackedIndex> build(std::vector<PackedEntry> entries,
                                   std::vector<uint64_t> container_sizes);

  std::vector<uint8_t> encode() const;
  static Result<PackedIndex> decode(const uint8_t* data, size_t size);

  // Binary search by path hash; nullptr when absent.
  const PackedEntry* find(uint64_t path_hash) const;

  uint64_t total_sample_bytes() const;
};

struct PackOptions {
  // Target container size; a container closes once it reaches this.
  // Overridden by HVAC_PACK_CONTAINER_BYTES when left at 0 by callers
  // that want the env default.
  uint64_t container_bytes = 64ull << 20;
};

struct PackReport {
  uint64_t files = 0;
  uint32_t containers = 0;
  uint64_t bytes = 0;
};

// Packs every regular file under `root` (except .hvacpack itself)
// into containers + index under `root`/.hvacpack. Deterministic: the
// tree is walked in sorted relative-path order, so the same tree
// always packs to byte-identical containers and index. Fails on a
// path-hash collision between two distinct paths (never observed with
// stable_hash on real datasets, but silently dropping a sample is not
// an option).
Result<PackReport> pack_tree(const std::string& root,
                             const PackOptions& options = {});

// Recursive listing of regular files under `root`, as sorted
// root-relative paths. `skip_dir` (a single top-level name, e.g.
// ".hvacpack") is excluded.
Result<std::vector<std::string>> list_files_recursive(
    const std::string& root, const std::string& skip_dir = "");

}  // namespace hvac::storage
