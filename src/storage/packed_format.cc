#include "storage/packed_format.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/env.h"
#include "common/hash.h"
#include "common/log.h"
#include "storage/posix_file.h"

namespace hvac::storage {

namespace {

constexpr size_t kHeaderBytes = 4 + 2 + 2 + 4 + 8;
constexpr size_t kEntryBytes = 8 + 4 + 8 + 8;
constexpr size_t kChecksumBytes = 8;

void put_le(std::vector<uint8_t>& out, const void* p, size_t n) {
  static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
                "big-endian hosts need byte swaps here");
  // resize + memcpy rather than insert: GCC 12 misreports a 2-8 byte
  // vector::insert as an overflow (-Wstringop-overflow).
  const size_t at = out.size();
  out.resize(at + n);
  std::memcpy(out.data() + at, p, n);
}

void put_u16(std::vector<uint8_t>& out, uint16_t v) { put_le(out, &v, 2); }
void put_u32(std::vector<uint8_t>& out, uint32_t v) { put_le(out, &v, 4); }
void put_u64(std::vector<uint8_t>& out, uint64_t v) { put_le(out, &v, 8); }

// Bounds-checked little-endian cursor (the index is decoded from
// untrusted bytes: a PFS file or an RPC payload).
struct Cursor {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;

  size_t remaining() const { return size - pos; }
  bool take(void* dst, size_t n) {
    if (remaining() < n) return false;
    std::memcpy(dst, data + pos, n);
    pos += n;
    return true;
  }
};

Error corrupt(const char* what) {
  return Error(ErrorCode::kProtocol,
               std::string("packed index: ") + what);
}

uint64_t checksum_of(const uint8_t* data, size_t size) {
  return fnv1a64(
      std::string_view(reinterpret_cast<const char*>(data), size));
}

Status list_files_walk(const std::string& root, const std::string& rel,
                       const std::string& skip_dir,
                       std::vector<std::string>* out) {
  const std::string dir = rel.empty() ? root : path_join(root, rel);
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Error::from_errno(errno, "opendir " + dir);
  }
  Status status = Status::Ok();
  while (const dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name == "." || name == "..") continue;
    if (rel.empty() && name == skip_dir) continue;
    const std::string child_rel =
        rel.empty() ? name : rel + "/" + name;
    struct stat st{};
    if (::lstat(path_join(root, child_rel).c_str(), &st) != 0) continue;
    if (S_ISDIR(st.st_mode)) {
      status = list_files_walk(root, child_rel, skip_dir, out);
      if (!status.ok()) break;
    } else if (S_ISREG(st.st_mode)) {
      out->push_back(child_rel);
    }
  }
  ::closedir(d);
  return status;
}

}  // namespace

std::string packed_dir_name() { return ".hvacpack"; }

std::string packed_index_logical() { return ".hvacpack/index.hvacpack"; }

std::string packed_container_logical(uint32_t id) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), ".hvacpack/container_%05u.blob", id);
  return std::string(buf);
}

Result<PackedIndex> PackedIndex::build(
    std::vector<PackedEntry> entries,
    std::vector<uint64_t> container_sizes) {
  std::sort(entries.begin(), entries.end(),
            [](const PackedEntry& a, const PackedEntry& b) {
              return a.path_hash < b.path_hash;
            });
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].path_hash == entries[i - 1].path_hash) {
      return Error(ErrorCode::kInvalidArgument,
                   "packed index: path-hash collision between two samples");
    }
  }
  PackedIndex index;
  index.container_sizes = std::move(container_sizes);
  index.entries = std::move(entries);
  return index;
}

std::vector<uint8_t> PackedIndex::encode() const {
  std::vector<uint8_t> out;
  out.reserve(kHeaderBytes + container_sizes.size() * 8 +
              entries.size() * kEntryBytes + kChecksumBytes);
  put_u32(out, kPackedIndexMagic);
  put_u16(out, kPackedIndexVersion);
  put_u16(out, 0);
  put_u32(out, static_cast<uint32_t>(container_sizes.size()));
  put_u64(out, static_cast<uint64_t>(entries.size()));
  for (uint64_t size : container_sizes) put_u64(out, size);
  for (const PackedEntry& e : entries) {
    put_u64(out, e.path_hash);
    put_u32(out, e.container_id);
    put_u64(out, e.offset);
    put_u64(out, e.length);
  }
  put_u64(out, checksum_of(out.data(), out.size()));
  return out;
}

Result<PackedIndex> PackedIndex::decode(const uint8_t* data, size_t size) {
  Cursor c{data, size};
  uint32_t magic = 0;
  uint16_t version = 0;
  uint16_t reserved = 0;
  uint32_t container_count = 0;
  uint64_t entry_count = 0;
  if (!c.take(&magic, 4) || !c.take(&version, 2) || !c.take(&reserved, 2) ||
      !c.take(&container_count, 4) || !c.take(&entry_count, 8)) {
    return corrupt("truncated header");
  }
  if (magic != kPackedIndexMagic) return corrupt("bad magic");
  if (version != kPackedIndexVersion) return corrupt("unsupported version");
  const size_t body = static_cast<size_t>(container_count) * 8 +
                      static_cast<size_t>(entry_count) * kEntryBytes;
  if (c.remaining() < body + kChecksumBytes) {
    return corrupt("truncated body");
  }
  if (c.remaining() > body + kChecksumBytes) {
    return corrupt("trailing bytes");
  }
  // Checksum covers everything before itself; verify before trusting
  // any entry field.
  uint64_t stored = 0;
  std::memcpy(&stored, data + size - kChecksumBytes, kChecksumBytes);
  if (stored != checksum_of(data, size - kChecksumBytes)) {
    return corrupt("checksum mismatch");
  }
  PackedIndex index;
  index.container_sizes.resize(container_count);
  for (uint32_t i = 0; i < container_count; ++i) {
    c.take(&index.container_sizes[i], 8);
  }
  index.entries.resize(entry_count);
  for (uint64_t i = 0; i < entry_count; ++i) {
    PackedEntry& e = index.entries[i];
    c.take(&e.path_hash, 8);
    c.take(&e.container_id, 4);
    c.take(&e.offset, 8);
    c.take(&e.length, 8);
    if (i > 0 && e.path_hash <= index.entries[i - 1].path_hash) {
      return corrupt("entries unsorted or duplicate path hash");
    }
    if (e.container_id >= container_count) {
      return corrupt("container id out of range");
    }
    const uint64_t csize = index.container_sizes[e.container_id];
    if (e.offset > csize || e.length > csize - e.offset) {
      return corrupt("extent outside container");
    }
  }
  return index;
}

const PackedEntry* PackedIndex::find(uint64_t path_hash) const {
  auto it = std::lower_bound(
      entries.begin(), entries.end(), path_hash,
      [](const PackedEntry& e, uint64_t h) { return e.path_hash < h; });
  if (it == entries.end() || it->path_hash != path_hash) return nullptr;
  return &*it;
}

uint64_t PackedIndex::total_sample_bytes() const {
  uint64_t total = 0;
  for (const PackedEntry& e : entries) total += e.length;
  return total;
}

Result<std::vector<std::string>> list_files_recursive(
    const std::string& root, const std::string& skip_dir) {
  std::vector<std::string> out;
  HVAC_RETURN_IF_ERROR(list_files_walk(root, "", skip_dir, &out));
  std::sort(out.begin(), out.end());
  return out;
}

Result<PackReport> pack_tree(const std::string& root,
                             const PackOptions& options) {
  const uint64_t container_bytes = options.container_bytes > 0
                                       ? options.container_bytes
                                       : kDefaultContainerBytes;
  HVAC_ASSIGN_OR_RETURN(std::vector<std::string> rels,
                        list_files_recursive(root, packed_dir_name()));
  if (rels.empty()) {
    return Error(ErrorCode::kInvalidArgument,
                 "pack: no files under " + root);
  }
  HVAC_RETURN_IF_ERROR(
      make_directories(path_join(root, packed_dir_name())));

  std::vector<PackedEntry> entries;
  entries.reserve(rels.size());
  std::vector<uint64_t> container_sizes;
  PackReport report;

  PosixFile container;
  uint64_t container_fill = 0;
  auto roll_container = [&]() -> Status {
    if (container.valid()) {
      HVAC_RETURN_IF_ERROR(container.close());
      container_sizes.push_back(container_fill);
    }
    const uint32_t id = static_cast<uint32_t>(container_sizes.size());
    HVAC_ASSIGN_OR_RETURN(
        container,
        PosixFile::create_write(
            path_join(root, packed_container_logical(id))));
    container_fill = 0;
    return Status::Ok();
  };
  HVAC_RETURN_IF_ERROR(roll_container());

  for (const std::string& rel : rels) {
    HVAC_ASSIGN_OR_RETURN(std::vector<uint8_t> data,
                          read_file(path_join(root, rel)));
    // Close the current container once full — but never emit an empty
    // one, and never split a sample across two containers.
    if (container_fill > 0 && container_fill + data.size() > container_bytes) {
      HVAC_RETURN_IF_ERROR(roll_container());
    }
    PackedEntry e;
    e.path_hash = stable_hash(rel);
    e.container_id = static_cast<uint32_t>(container_sizes.size());
    e.offset = container_fill;
    e.length = data.size();
    entries.push_back(e);
    if (!data.empty()) {
      HVAC_ASSIGN_OR_RETURN(size_t n,
                            container.write(data.data(), data.size()));
      if (n != data.size()) {
        return Error(ErrorCode::kIoError, "pack: short container write");
      }
    }
    container_fill += data.size();
    report.bytes += data.size();
    ++report.files;
  }
  HVAC_RETURN_IF_ERROR(container.close());
  container_sizes.push_back(container_fill);

  HVAC_ASSIGN_OR_RETURN(
      PackedIndex index,
      PackedIndex::build(std::move(entries), std::move(container_sizes)));
  const std::vector<uint8_t> bytes = index.encode();
  HVAC_RETURN_IF_ERROR(write_file(path_join(root, packed_index_logical()),
                                  bytes.data(), bytes.size()));
  report.containers = static_cast<uint32_t>(index.container_sizes.size());
  HVAC_LOG_INFO("packed " << report.files << " files into "
                          << report.containers << " containers ("
                          << report.bytes << " bytes) under " << root);
  return report;
}

}  // namespace hvac::storage
