#include "storage/posix_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

namespace hvac::storage {

PosixFile::~PosixFile() {
  if (fd_ >= 0) ::close(fd_);
}

PosixFile& PosixFile::operator=(PosixFile&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

Result<PosixFile> PosixFile::open_read(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Error::from_errno(errno, "open " + path);
  return PosixFile(fd);
}

Result<PosixFile> PosixFile::create_write(const std::string& path) {
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Error::from_errno(errno, "create " + path);
  return PosixFile(fd);
}

Result<PosixFile> PosixFile::open_rw(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return Error::from_errno(errno, "open_rw " + path);
  return PosixFile(fd);
}

Result<PosixFile> PosixFile::open_write_only(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) return Error::from_errno(errno, "open_write_only " + path);
  return PosixFile(fd);
}

Result<size_t> PosixFile::read(void* buf, size_t count) {
  for (;;) {
    const ssize_t n = ::read(fd_, buf, count);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno != EINTR) return Error::from_errno(errno, "read");
  }
}

Result<size_t> PosixFile::pread(void* buf, size_t count,
                                uint64_t offset) const {
  for (;;) {
    const ssize_t n =
        ::pread(fd_, buf, count, static_cast<off_t>(offset));
    if (n >= 0) return static_cast<size_t>(n);
    if (errno != EINTR) return Error::from_errno(errno, "pread");
  }
}

Result<size_t> PosixFile::write(const void* buf, size_t count) {
  size_t done = 0;
  const auto* p = static_cast<const uint8_t*>(buf);
  while (done < count) {
    const ssize_t n = ::write(fd_, p + done, count - done);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return Error::from_errno(errno, "write");
    }
    done += static_cast<size_t>(n);
  }
  return done;
}

Result<size_t> PosixFile::pwrite(const void* buf, size_t count,
                                 uint64_t offset) {
  size_t done = 0;
  const auto* p = static_cast<const uint8_t*>(buf);
  while (done < count) {
    const ssize_t n = ::pwrite(fd_, p + done, count - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return Error::from_errno(errno, "pwrite");
    }
    done += static_cast<size_t>(n);
  }
  return done;
}

Result<size_t> PosixFile::pwritev(const iovec* iov, int iovcnt,
                                  uint64_t offset) {
  std::vector<iovec> rest;  // filled only after a short write
  size_t done = 0;
  while (iovcnt > 0) {
    const ssize_t n = ::pwritev(fd_, iov, iovcnt,
                                static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return Error::from_errno(errno, "pwritev");
    }
    done += static_cast<size_t>(n);
    size_t left = static_cast<size_t>(n);
    while (iovcnt > 0 && left >= iov->iov_len) {
      left -= iov->iov_len;
      ++iov;
      --iovcnt;
    }
    if (left > 0) {  // resume inside a buffer from a private copy
      std::vector<iovec> next(iov, iov + iovcnt);
      next[0].iov_base = static_cast<uint8_t*>(next[0].iov_base) + left;
      next[0].iov_len -= left;
      rest.swap(next);
      iov = rest.data();
    }
  }
  return done;
}

Status PosixFile::sync() {
  while (::fsync(fd_) != 0) {
    if (errno != EINTR) return Error::from_errno(errno, "fsync");
  }
  return Status::Ok();
}

Status PosixFile::datasync() {
  while (::fdatasync(fd_) != 0) {
    if (errno != EINTR) return Error::from_errno(errno, "fdatasync");
  }
  return Status::Ok();
}

Status PosixFile::truncate(uint64_t length) {
  while (::ftruncate(fd_, static_cast<off_t>(length)) != 0) {
    if (errno != EINTR) return Error::from_errno(errno, "ftruncate");
  }
  return Status::Ok();
}

Result<uint64_t> PosixFile::size() const {
  struct stat st{};
  if (::fstat(fd_, &st) != 0) return Error::from_errno(errno, "fstat");
  return static_cast<uint64_t>(st.st_size);
}

Status PosixFile::close() {
  if (fd_ < 0) return Status::Ok();
  const int rc = ::close(std::exchange(fd_, -1));
  if (rc != 0) return Error::from_errno(errno, "close");
  return Status::Ok();
}

Result<std::vector<uint8_t>> read_file(const std::string& path) {
  HVAC_ASSIGN_OR_RETURN(PosixFile f, PosixFile::open_read(path));
  HVAC_ASSIGN_OR_RETURN(uint64_t sz, f.size());
  std::vector<uint8_t> data(sz);
  size_t got = 0;
  while (got < data.size()) {
    HVAC_ASSIGN_OR_RETURN(size_t n, f.read(data.data() + got,
                                           data.size() - got));
    if (n == 0) break;  // truncated concurrently; return what we have
    got += n;
  }
  data.resize(got);
  return data;
}

Status make_directories(const std::string& path) {
  std::string partial;
  size_t i = 0;
  while (i < path.size()) {
    size_t j = path.find('/', i + 1);
    if (j == std::string::npos) j = path.size();
    partial = path.substr(0, j);
    if (!partial.empty() && partial != "/") {
      if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
        return Error::from_errno(errno, "mkdir " + partial);
      }
    }
    i = j;
  }
  return Status::Ok();
}

namespace {
std::string parent_dir(const std::string& path) {
  const size_t slash = path.rfind('/');
  if (slash == std::string::npos || slash == 0) return "/";
  return path.substr(0, slash);
}
}  // namespace

Status write_file(const std::string& path, const void* data, size_t size) {
  HVAC_RETURN_IF_ERROR(make_directories(parent_dir(path)));
  HVAC_ASSIGN_OR_RETURN(PosixFile f, PosixFile::create_write(path));
  HVAC_ASSIGN_OR_RETURN(size_t n, f.write(data, size));
  (void)n;
  return f.close();
}

Result<uint64_t> copy_range(PosixFile& in, uint64_t offset, uint64_t length,
                            PosixFile& out, uint64_t out_offset,
                            bool kernel) {
  uint64_t copied = 0;
  while (kernel && copied < length) {
    loff_t off_in = static_cast<loff_t>(offset + copied);
    loff_t off_out = static_cast<loff_t>(out_offset + copied);
    const size_t want =
        static_cast<size_t>(std::min<uint64_t>(length - copied, 1u << 30));
    const ssize_t n =
        ::copy_file_range(in.fd(), &off_in, out.fd(), &off_out, want, 0);
    if (n > 0) {
      copied += static_cast<uint64_t>(n);
      continue;
    }
    if (n == 0) return copied;  // EOF
    if (errno == EINTR) continue;
    if (errno != EXDEV && errno != EINVAL && errno != ENOSYS &&
        errno != EOPNOTSUPP) {
      return Error::from_errno(errno, "copy_file_range");
    }
    kernel = false;  // no kernel copy between these files
  }
  uint8_t buf[64u << 10];
  while (copied < length) {
    const size_t want =
        static_cast<size_t>(std::min<uint64_t>(sizeof(buf), length - copied));
    HVAC_ASSIGN_OR_RETURN(size_t n, in.pread(buf, want, offset + copied));
    if (n == 0) break;  // EOF
    HVAC_ASSIGN_OR_RETURN(size_t w, out.pwrite(buf, n, out_offset + copied));
    copied += w;
  }
  return copied;
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

Result<uint64_t> file_size(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) {
    return Error::from_errno(errno, "stat " + path);
  }
  return static_cast<uint64_t>(st.st_size);
}

Status remove_file(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Error::from_errno(errno, "unlink " + path);
  }
  return Status::Ok();
}

}  // namespace hvac::storage
