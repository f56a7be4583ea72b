// RAII POSIX file handle with Result-based error reporting.
//
// The interception shim cannot use C++ iostreams (their internal
// open/read would recurse through the shim), so every real I/O in the
// library funnels through this thin syscalls wrapper.
#pragma once

#include <sys/uio.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace hvac::storage {

class PosixFile {
 public:
  PosixFile() = default;
  ~PosixFile();

  PosixFile(const PosixFile&) = delete;
  PosixFile& operator=(const PosixFile&) = delete;
  PosixFile(PosixFile&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  PosixFile& operator=(PosixFile&& other) noexcept;

  static Result<PosixFile> open_read(const std::string& path);
  // Creates or truncates `path`. The fd is open for reading too, so
  // the data mover can keep the cache copy it just wrote as the fd
  // that serves it.
  static Result<PosixFile> create_write(const std::string& path);
  // Read/write open that preserves existing contents (O_RDWR|O_CREAT,
  // no truncation): the journal and the write-back store both re-open
  // files across restarts and must not lose what a crashed process
  // already persisted.
  static Result<PosixFile> open_rw(const std::string& path);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  // Hands the fd to the caller, who closes it.
  int release() { return std::exchange(fd_, -1); }

  // Sequential read; returns the byte count (0 at EOF).
  Result<size_t> read(void* buf, size_t count);
  // Positional read; does not move the file offset.
  Result<size_t> pread(void* buf, size_t count, uint64_t offset) const;
  // The writes are exact: they resume short transfers and retry
  // EINTR/EAGAIN until every byte is down or a real error surfaces
  // (same discipline as sendfile_exact/splice_exact on the read side).
  Result<size_t> write(const void* buf, size_t count);
  Result<size_t> pwrite(const void* buf, size_t count, uint64_t offset);
  // Gathered pwrite of `iovcnt` buffers to consecutive bytes from
  // `offset`; `iov` itself is never modified.
  Result<size_t> pwritev(const iovec* iov, int iovcnt, uint64_t offset);
  // fsync / fdatasync. The journal's commit barrier is datasync():
  // record bytes must be on media before an fsync is acked, but the
  // inode mtime is not part of the durability contract.
  Status sync();
  Status datasync();
  // ftruncate: replay cuts torn/CRC-bad journal tails with this.
  Status truncate(uint64_t length);
  Result<uint64_t> size() const;
  Status close();

 private:
  explicit PosixFile(int fd) : fd_(fd) {}
  int fd_ = -1;
};

// Reads a whole file into memory.
Result<std::vector<uint8_t>> read_file(const std::string& path);

// Writes a buffer to a file, creating parent directories as needed.
Status write_file(const std::string& path, const void* data, size_t size);

// Copies up to `length` bytes of `in`, starting at `offset`, to `out`
// at `out_offset`; returns bytes copied (short at EOF). Neither file
// offset moves, so shared fds stay usable. The copy runs in the kernel
// (copy_file_range) and drops to a 64 KiB stack-buffer pread/pwrite
// loop on EXDEV, EINVAL, ENOSYS or EOPNOTSUPP; `kernel = false` forces
// that loop. This is the data-mover's PFS -> NVMe "fs::copy" step (into
// a cache slab slot) and the flusher's inverse.
Result<uint64_t> copy_range(PosixFile& in, uint64_t offset, uint64_t length,
                            PosixFile& out, uint64_t out_offset,
                            bool kernel = true);

// mkdir -p.
Status make_directories(const std::string& path);

// True when the path exists and is a regular file.
bool file_exists(const std::string& path);

// Size of an existing file, or error.
Result<uint64_t> file_size(const std::string& path);

// Unlinks a file (missing file is OK).
Status remove_file(const std::string& path);

}  // namespace hvac::storage
