#include "storage/pfs_backend.h"

#include <atomic>
#include <cerrno>
#include <cstdio>

#include "common/env.h"
#include "common/fault_injection.h"

namespace hvac::storage {

PfsOptions gpfs_like_options() {
  PfsOptions o;
  // A loaded GPFS open costs hundreds of microseconds to milliseconds;
  // 800us +/- 300us is a representative mid-load figure and is slow
  // enough that the cache win is visible in second-long examples.
  o.metadata_latency_us = 800;
  o.metadata_jitter_us = 300;
  // Model this node's fair share of the PFS under congestion.
  o.bandwidth_bytes_per_sec = 256.0 * (1u << 20);  // 256 MiB/s
  return o;
}

PfsBackend::PfsBackend(std::string root, PfsOptions options)
    : root_(std::move(root)),
      options_(options),
      latency_(options.metadata_latency_us, options.metadata_jitter_us,
               options.seed),
      bandwidth_(options.bandwidth_bytes_per_sec, options.burst_bytes) {}

std::string PfsBackend::absolute(const std::string& relative_path) const {
  if (!relative_path.empty() && relative_path.front() == '/') {
    return relative_path;  // already absolute (caller passed full path)
  }
  return path_join(root_, relative_path);
}

void PfsBackend::charge_metadata() {
  metadata_ops_.fetch_add(1, std::memory_order_relaxed);
  latency_.inject();
}

void PfsBackend::charge_bandwidth(uint64_t bytes) {
  bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
  bandwidth_.acquire(bytes);
}

Result<PosixFile> PfsBackend::open(const std::string& relative_path) {
  HVAC_RETURN_IF_ERROR(fault::check(fault::Site::kPfsRead));
  charge_metadata();
  return PosixFile::open_read(absolute(relative_path));
}

Result<std::vector<uint8_t>> PfsBackend::read_all(
    const std::string& relative_path) {
  HVAC_ASSIGN_OR_RETURN(PosixFile f, open(relative_path));
  HVAC_ASSIGN_OR_RETURN(uint64_t sz, f.size());
  charge_bandwidth(sz);
  std::vector<uint8_t> data(sz);
  size_t got = 0;
  while (got < data.size()) {
    HVAC_ASSIGN_OR_RETURN(size_t n,
                          f.read(data.data() + got, data.size() - got));
    if (n == 0) break;
    got += n;
  }
  data.resize(got);
  return data;
}

Result<uint64_t> PfsBackend::copy_out(PosixFile& src, PosixFile& dst,
                                      uint64_t offset, uint64_t length,
                                      uint64_t dst_offset) {
  HVAC_ASSIGN_OR_RETURN(uint64_t copied,
                        copy_range(src, offset, length, dst, dst_offset));
  charge_bandwidth(copied);
  return copied;
}

Result<uint64_t> PfsBackend::copy_out(const std::string& relative_path,
                                      const std::string& dst) {
  HVAC_ASSIGN_OR_RETURN(PosixFile src, open(relative_path));
  HVAC_ASSIGN_OR_RETURN(PosixFile out, PosixFile::create_write(dst));
  HVAC_ASSIGN_OR_RETURN(uint64_t copied, copy_out(src, out));
  HVAC_RETURN_IF_ERROR(out.close());
  return copied;
}

Result<PosixFile> PfsBackend::open_write(const std::string& relative_path,
                                         bool trunc) {
  HVAC_RETURN_IF_ERROR(fault::check(fault::Site::kPfsWrite));
  charge_metadata();
  const std::string dst = absolute(relative_path);
  const auto slash = dst.rfind('/');
  if (slash != std::string::npos && slash > 0) {
    HVAC_RETURN_IF_ERROR(make_directories(dst.substr(0, slash)));
  }
  HVAC_ASSIGN_OR_RETURN(PosixFile out, PosixFile::open_rw(dst));
  if (trunc) HVAC_RETURN_IF_ERROR(out.truncate(0));
  return out;
}

Result<size_t> PfsBackend::pwrite(PosixFile& file, const void* buf,
                                  size_t count, uint64_t offset) {
  HVAC_RETURN_IF_ERROR(fault::check(fault::Site::kPfsWrite));
  HVAC_ASSIGN_OR_RETURN(size_t n, file.pwrite(buf, count, offset));
  bytes_written_.fetch_add(n, std::memory_order_relaxed);
  bandwidth_.acquire(n);
  return n;
}

Result<uint64_t> PfsBackend::copy_in(const std::string& src,
                                     const std::string& relative_path,
                                     uint64_t length) {
  HVAC_RETURN_IF_ERROR(fault::check(fault::Site::kPfsWrite));
  charge_metadata();
  const std::string dst = absolute(relative_path);
  const std::string tmp = dst + ".hvacflush";
  HVAC_ASSIGN_OR_RETURN(PosixFile in, PosixFile::open_read(src));
  HVAC_RETURN_IF_ERROR(make_directories(
      dst.rfind('/') == std::string::npos ? std::string("/")
                                          : dst.substr(0, dst.rfind('/'))));
  HVAC_ASSIGN_OR_RETURN(PosixFile out, PosixFile::create_write(tmp));
  HVAC_ASSIGN_OR_RETURN(uint64_t total, copy_range(in, 0, length, out, 0));
  HVAC_RETURN_IF_ERROR(out.sync());
  HVAC_RETURN_IF_ERROR(out.close());
  if (::rename(tmp.c_str(), dst.c_str()) != 0) {
    const Error e = Error::from_errno(errno, "rename " + tmp);
    (void)remove_file(tmp);
    return e;
  }
  bytes_written_.fetch_add(total, std::memory_order_relaxed);
  bandwidth_.acquire(total);
  return total;
}

Result<size_t> PfsBackend::pread(PosixFile& file, void* buf, size_t count,
                                 uint64_t offset) {
  HVAC_RETURN_IF_ERROR(fault::check(fault::Site::kPfsRead));
  HVAC_ASSIGN_OR_RETURN(size_t n, file.pread(buf, count, offset));
  charge_bandwidth(n);
  return n;
}

Result<uint64_t> PfsBackend::size_of(const std::string& relative_path) {
  charge_metadata();
  return file_size(absolute(relative_path));
}

bool PfsBackend::exists(const std::string& relative_path) const {
  return file_exists(absolute(relative_path));
}

}  // namespace hvac::storage
