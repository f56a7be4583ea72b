#include "core/fd_table.h"

#include <unistd.h>

#include <algorithm>

namespace hvac::core {

SlabFd::~SlabFd() { ::close(fd); }

WriteFd::~WriteFd() { ::close(fd); }

int FdTable::insert(FdEntry entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int vfd = next_fd_++;
  entries_.emplace(vfd, std::move(entry));
  return vfd;
}

Result<FdEntry> FdTable::get(int vfd) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(vfd);
  if (it == entries_.end()) {
    return Error(ErrorCode::kBadFd, "unknown virtual fd " +
                                        std::to_string(vfd));
  }
  return it->second;
}

Status FdTable::set_offset(int vfd, uint64_t offset) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(vfd);
  if (it == entries_.end()) {
    return Error(ErrorCode::kBadFd, "unknown virtual fd " +
                                        std::to_string(vfd));
  }
  it->second.offset = offset;
  return Status::Ok();
}

Result<uint64_t> FdTable::reserve_offset(int vfd, uint64_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(vfd);
  if (it == entries_.end()) {
    return Error(ErrorCode::kBadFd, "unknown virtual fd " +
                                        std::to_string(vfd));
  }
  const uint64_t offset = it->second.offset;
  it->second.offset = offset + count;
  return offset;
}

Result<FdTable::Range> FdTable::reserve_read(int vfd, uint64_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(vfd);
  if (it == entries_.end()) {
    return Error(ErrorCode::kBadFd, "unknown virtual fd " +
                                        std::to_string(vfd));
  }
  FdEntry& entry = it->second;
  Range range;
  range.offset = entry.offset;
  if (entry.offset < entry.size) {
    range.length = std::min(count, entry.size - entry.offset);
  }
  entry.offset += range.length;
  return range;
}

Status FdTable::rewind_offset(int vfd, uint64_t reserved_end,
                              uint64_t actual_end) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(vfd);
  if (it == entries_.end()) {
    return Error(ErrorCode::kBadFd, "unknown virtual fd " +
                                        std::to_string(vfd));
  }
  if (it->second.offset == reserved_end) {
    it->second.offset = actual_end;
  }
  return Status::Ok();
}

void FdTable::attach_inline(
    int vfd, std::shared_ptr<const std::vector<uint8_t>> data) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(vfd);
  if (it != entries_.end()) it->second.inline_data = std::move(data);
}

Status FdTable::replace(int vfd, FdEntry entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(vfd);
  if (it == entries_.end()) {
    return Error(ErrorCode::kBadFd, "unknown virtual fd " +
                                        std::to_string(vfd));
  }
  entry.offset = it->second.offset;
  it->second = std::move(entry);
  return Status::Ok();
}

Result<FdEntry> FdTable::erase(int vfd) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(vfd);
  if (it == entries_.end()) {
    return Error(ErrorCode::kBadFd, "unknown virtual fd " +
                                        std::to_string(vfd));
  }
  FdEntry entry = std::move(it->second);
  entries_.erase(it);
  return entry;
}

size_t FdTable::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace hvac::core
