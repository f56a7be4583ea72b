// The benchmark's reader: an unmodified POSIX application, one process
// and one thread per epoch. It touches dataset files only through the
// calls the HVAC shim interposes (open, fstat, lseek, read, write,
// fsync, close), so the same binary measures the direct path (no
// LD_PRELOAD) and the HVAC path (under libhvac_intercept.so).
//
//   perfbench_reader JOB_FILE OUT_FILE
//
// JOB_FILE holds "key value" settings followed by one "s PATH" line per
// sample in access order. Per sample: open, fstat, lseek(1), lseek(0),
// read() in read_bytes pieces to EOF, close, fnv64 of the bytes. After
// every ckpt_every samples it writes one checkpoint shard:
// open(O_WRONLY|O_CREAT|O_TRUNC), ckpt_write-sized writes, fsync,
// close. With "trace 1" every libc call is timed on its own (the
// per-layer intercept pass); otherwise only samples, read phases and
// shards are timed.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"

namespace {

using perfbench::now_ns;

// Shard opens and closes are timed apart from the samples' own, so
// "open" and "close" compare with the client's read-side open/close.
enum Op {
  kOpen, kFstat, kLseek, kRead, kClose,
  kOpenWrite, kWrite, kFsync, kCloseWrite, kOpCount
};
const char* const kOpNames[kOpCount] = {
    "open",       "fstat", "lseek", "read",       "close",
    "open_write", "write", "fsync", "close_write"};

struct OpTimes {
  bool enabled = false;
  uint64_t count[kOpCount] = {};
  uint64_t ns[kOpCount] = {};
};

OpTimes g_ops;

// Times one libc call when the trace pass asked for it.
template <typename Fn>
auto timed(Op op, Fn&& fn) {
  if (!g_ops.enabled) return fn();
  const uint64_t t0 = now_ns();
  auto r = fn();
  g_ops.ns[op] += now_ns() - t0;
  ++g_ops.count[op];
  return r;
}

bool read_whole(const char* path, std::string* out) {
  const int fd = ::open(path, O_RDONLY);
  if (fd < 0) return false;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    out->append(buf, static_cast<size_t>(n));
  }
  return ::close(fd) == 0;
}

struct Job {
  uint64_t read_bytes = 8192;
  uint64_t ckpt_every = 0;
  uint64_t ckpt_bytes = 0;
  uint64_t ckpt_write = 1 << 20;
  uint64_t ckpt_key = 0;
  std::string ckpt_prefix;
  std::vector<std::string> samples;
};

bool parse_job(const std::string& text, Job* job) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    const size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    const std::string key = line.substr(0, sp);
    const std::string value = line.substr(sp + 1);
    const uint64_t num = std::strtoull(value.c_str(), nullptr, 10);
    if (key == "s") job->samples.push_back(value);
    else if (key == "read_bytes") job->read_bytes = num;
    else if (key == "ckpt_every") job->ckpt_every = num;
    else if (key == "ckpt_bytes") job->ckpt_bytes = num;
    else if (key == "ckpt_write") job->ckpt_write = num;
    else if (key == "ckpt_key") job->ckpt_key = num;
    else if (key == "ckpt_prefix") job->ckpt_prefix = value;
    else if (key == "trace") g_ops.enabled = num != 0;
    else return false;
  }
  return job->read_bytes > 0 && job->ckpt_write > 0;
}

struct Output {
  std::string text;
  void line(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    char buf[4096];
    va_list ap;
    va_start(ap, fmt);
    const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    if (n > 0) text.append(buf, std::min<size_t>(size_t(n), sizeof(buf) - 1));
    text.push_back('\n');
  }
};

// One sample: open → fstat → lseek(1) → lseek(0) → reads → close.
void read_sample(const std::string& path, std::vector<uint8_t>& buf,
                 Output& out) {
  const uint64_t t0 = now_ns();
  const int fd = timed(kOpen, [&] { return ::open(path.c_str(), O_RDONLY); });
  if (fd < 0) {
    out.line("e %s open", path.c_str());
    return;
  }
  struct stat st{};
  if (timed(kFstat, [&] { return ::fstat(fd, &st); }) != 0 ||
      timed(kLseek, [&] { return ::lseek(fd, 1, SEEK_SET); }) != 1 ||
      timed(kLseek, [&] { return ::lseek(fd, 0, SEEK_SET); }) != 0) {
    out.line("e %s fstat/lseek", path.c_str());
    ::close(fd);
    return;
  }
  uint64_t h = perfbench::kFnvBasis;
  uint64_t total = 0;
  const uint64_t r0 = now_ns();
  for (;;) {
    const ssize_t n =
        timed(kRead, [&] { return ::read(fd, buf.data(), buf.size()); });
    if (n < 0) {
      out.line("e %s read", path.c_str());
      ::close(fd);
      return;
    }
    if (n == 0) break;
    h = perfbench::fnv1a(buf.data(), static_cast<size_t>(n), h);
    total += static_cast<uint64_t>(n);
  }
  const uint64_t read_ns = now_ns() - r0;
  if (timed(kClose, [&] { return ::close(fd); }) != 0) {
    out.line("e %s close", path.c_str());
    return;
  }
  if (total != static_cast<uint64_t>(st.st_size)) {
    out.line("e %s fstat-size", path.c_str());
    return;
  }
  out.line("s %" PRIu64 " %016" PRIx64 " %" PRIu64 " %" PRIu64, total, h,
           now_ns() - t0, read_ns);
}

// One checkpoint shard; returns the monotonic time of its close.
uint64_t write_shard(const Job& job, uint64_t index,
                     std::vector<uint8_t>& shard, Output& out) {
  perfbench::fill_shard(job.ckpt_key + index, shard.data(), shard.size());
  const std::string path = job.ckpt_prefix + std::to_string(index);
  const uint64_t t0 = now_ns();
  const int fd = timed(kOpenWrite, [&] {
    return ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  });
  if (fd < 0) {
    out.line("e %s open-write", path.c_str());
    return 0;
  }
  for (uint64_t done = 0; done < shard.size();) {
    const size_t want =
        static_cast<size_t>(std::min<uint64_t>(job.ckpt_write,
                                               shard.size() - done));
    const ssize_t n = timed(
        kWrite, [&] { return ::write(fd, shard.data() + done, want); });
    if (n <= 0) {
      out.line("e %s write", path.c_str());
      ::close(fd);
      return 0;
    }
    done += static_cast<uint64_t>(n);
  }
  if (timed(kFsync, [&] { return ::fsync(fd); }) != 0 ||
      timed(kCloseWrite, [&] { return ::close(fd); }) != 0) {
    out.line("e %s fsync/close", path.c_str());
    return 0;
  }
  const uint64_t t1 = now_ns();
  out.line("c %" PRIu64, t1 - t0);
  return t1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s JOB_FILE OUT_FILE\n", argv[0]);
    return 2;
  }
  std::string text;
  Job job;
  if (!read_whole(argv[1], &text) || !parse_job(text, &job)) {
    std::fprintf(stderr, "perfbench_reader: bad job file %s\n", argv[1]);
    return 2;
  }
  Output out;
  out.text.reserve(job.samples.size() * 48 + 256);
  std::vector<uint8_t> buf(job.read_bytes);
  std::vector<uint8_t> shard(job.ckpt_bytes);
  uint64_t last_close = 0;
  uint64_t shards = 0;

  const uint64_t t0 = now_ns();
  for (size_t i = 0; i < job.samples.size(); ++i) {
    read_sample(job.samples[i], buf, out);
    if (job.ckpt_every > 0 && (i + 1) % job.ckpt_every == 0) {
      last_close = write_shard(job, shards++, shard, out);
    }
  }
  const uint64_t epoch_ns = now_ns() - t0;

  out.line("epoch_ns %" PRIu64, epoch_ns);
  out.line("last_close_ns %" PRIu64, last_close);
  // Peak RSS of this process image. The driver cannot take it from
  // wait4: a child started with posix_spawn shares the driver's memory
  // until exec, and its ru_maxrss keeps the driver's high-water mark.
  std::string status;
  if (read_whole("/proc/self/status", &status)) {
    const size_t at = status.find("VmHWM:");
    if (at != std::string::npos) {
      out.line("rss_kb %" PRIu64,
               std::strtoull(status.c_str() + at + 6, nullptr, 10));
    }
  }
  if (g_ops.enabled) {
    for (int op = 0; op < kOpCount; ++op) {
      out.line("op %s %" PRIu64 " %" PRIu64, kOpNames[op], g_ops.count[op],
               g_ops.ns[op]);
    }
  }
  const int fd = ::open(argv[2], O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return 1;
  const ssize_t n = ::write(fd, out.text.data(), out.text.size());
  const bool ok = n == static_cast<ssize_t>(out.text.size());
  return ::close(fd) == 0 && ok ? 0 : 1;
}
