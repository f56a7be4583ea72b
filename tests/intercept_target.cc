// Helper binary for the LD_PRELOAD tests. Behaves like an unmodified
// application: plain POSIX open/fstat/read/lseek/close on the paths
// given in argv, printing "<path> <size> <fnv64>" per file. When run
// under libhvac_intercept.so with HVAC_* env set, the exact same
// binary is served by the cache — the output must not change.
//
//   intercept_target [--repeat N] PATH...  read every path N times
//   intercept_target --stdio PATH...        fopen/fread instead
//   intercept_target --fortified PATH...    open through __open_2, as a
//                                           _FORTIFY_SOURCE build does
//                                           for non-constant flags
//   intercept_target --fstat-race PATH...   a second thread fstats each
//                                           fd in a loop while read()
//                                           streams it
//   intercept_target --stat-family PATH...  sizes each fd with fstatat,
//                                           fstatat64 and statx
//                                           (AT_EMPTY_PATH) and
//                                           __fxstat64 too
//   intercept_target --copy SRC DST         checkpoint-shaped write
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <thread>
#include <vector>

// glibc's checked open, declared only under _FORTIFY_SOURCE, and its
// pre-2.33 fstat entry point, no longer declared at all.
extern "C" int __open_2(const char* path, int flags);
extern "C" int __fxstat64(int ver, int fd, struct stat64* st);

namespace {

uint64_t fnv1a(const uint8_t* data, size_t size, uint64_t h) {
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

namespace {

// stdio variant: fopen/fseek/fread/fclose (the buffered path many
// Python-based loaders take).
int run_stdio(const char* path) {
  FILE* f = ::fopen(path, "rb");
  if (f == nullptr) {
    std::printf("%s ERROR fopen\n", path);
    return 1;
  }
  if (::fseek(f, 0, SEEK_END) != 0) {
    std::printf("%s ERROR fseek\n", path);
    ::fclose(f);
    return 1;
  }
  const long size = ::ftell(f);
  ::rewind(f);
  uint64_t h = 0xcbf29ce484222325ULL;
  uint64_t total = 0;
  std::vector<uint8_t> buf(4096);
  for (;;) {
    const size_t n = ::fread(buf.data(), 1, buf.size(), f);
    if (n == 0) break;
    h = fnv1a(buf.data(), n, h);
    total += n;
  }
  if (::fclose(f) != 0) {
    std::printf("%s ERROR fclose\n", path);
    return 1;
  }
  if (size >= 0 && total != uint64_t(size)) {
    std::printf("%s ERROR ftell size mismatch\n", path);
    return 1;
  }
  std::printf("%s %" PRIu64 " %016" PRIx64 "\n", path, total, h);
  return 0;
}

// Write variant: plain open(O_WRONLY|O_CREAT|O_TRUNC) + write +
// fsync + close of SRC's bytes into DST — the checkpoint shape. Under
// the shim DST lands in the write-back tier and is flushed to the PFS
// asynchronously; the caller compares the files once the server
// stopped gracefully.
int run_copy(const char* src, const char* dst) {
  const int in = ::open(src, O_RDONLY);
  if (in < 0) {
    std::printf("%s ERROR open src\n", src);
    return 1;
  }
  const int out = ::open(dst, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (out < 0) {
    std::printf("%s ERROR open dst\n", dst);
    ::close(in);
    return 1;
  }
  std::vector<uint8_t> buf(65536);
  uint64_t total = 0;
  for (;;) {
    const ssize_t n = ::read(in, buf.data(), buf.size());
    if (n < 0) {
      std::printf("%s ERROR read\n", src);
      return 1;
    }
    if (n == 0) break;
    ssize_t done = 0;
    while (done < n) {
      const ssize_t w = ::write(out, buf.data() + done, n - done);
      if (w <= 0) {
        std::printf("%s ERROR write\n", dst);
        return 1;
      }
      done += w;
    }
    total += static_cast<uint64_t>(n);
  }
  if (::fsync(out) != 0) {
    std::printf("%s ERROR fsync\n", dst);
    return 1;
  }
  ::close(in);
  if (::close(out) != 0) {
    std::printf("%s ERROR close\n", dst);
    return 1;
  }
  std::printf("%s %" PRIu64 " copied\n", dst, total);
  return 0;
}

// The default shape: open, fstat, lseek there and back, read() to
// EOF, close.
void run_posix(const char* path, bool fortified) {
  const int fd = fortified ? ::__open_2(path, O_RDONLY)
                           : ::open(path, O_RDONLY);
  if (fd < 0) {
    std::printf("%s ERROR open\n", path);
    return;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    std::printf("%s ERROR fstat\n", path);
    ::close(fd);
    return;
  }
  // Exercise lseek: skip the first byte, then rewind.
  if (::lseek(fd, 1, SEEK_SET) != 1 || ::lseek(fd, 0, SEEK_SET) != 0) {
    std::printf("%s ERROR lseek\n", path);
    ::close(fd);
    return;
  }
  uint64_t h = 0xcbf29ce484222325ULL;
  uint64_t total = 0;
  std::vector<uint8_t> buf(8192);
  for (;;) {
    const ssize_t n = ::read(fd, buf.data(), buf.size());
    if (n < 0) {
      std::printf("%s ERROR read\n", path);
      break;
    }
    if (n == 0) break;
    h = fnv1a(buf.data(), static_cast<size_t>(n), h);
    total += static_cast<uint64_t>(n);
  }
  if (::close(fd) != 0) {
    std::printf("%s ERROR close\n", path);
    return;
  }
  std::printf("%s %" PRIu64 " %016" PRIx64 "\n", path, total, h);
}

// Every other stat form that names the fd itself must agree with
// fstat's size; then the fd is read to EOF.
int run_stat_family(const char* path) {
  const int fd = ::open(path, O_RDONLY);
  if (fd < 0) {
    std::printf("%s ERROR open\n", path);
    return 1;
  }
  struct stat st{};
  struct stat64 st64{};
  struct statx stx{};
  const char* error = nullptr;
  if (::fstat(fd, &st) != 0) {
    error = "fstat";
  } else if (::fstatat(fd, "", &st, AT_EMPTY_PATH) != 0) {
    error = "fstatat";
  } else if (::fstatat64(fd, "", &st64, AT_EMPTY_PATH) != 0 ||
             st64.st_size != st.st_size) {
    error = "fstatat64";
  } else if (::statx(fd, "", AT_EMPTY_PATH, STATX_SIZE, &stx) != 0 ||
             (stx.stx_mask & STATX_SIZE) == 0 ||
             stx.stx_size != static_cast<uint64_t>(st.st_size)) {
    error = "statx";
  } else if (::__fxstat64(1, fd, &st64) != 0 || st64.st_size != st.st_size) {
    error = "__fxstat64";
  }
  uint64_t h = 0xcbf29ce484222325ULL;
  uint64_t total = 0;
  std::vector<uint8_t> buf(8192);
  while (error == nullptr) {
    const ssize_t n = ::read(fd, buf.data(), buf.size());
    if (n < 0) error = "read";
    if (n <= 0) break;
    h = fnv1a(buf.data(), static_cast<size_t>(n), h);
    total += static_cast<uint64_t>(n);
  }
  ::close(fd);
  if (error == nullptr && total != static_cast<uint64_t>(st.st_size)) {
    error = "size";
  }
  if (error != nullptr) {
    std::printf("%s ERROR %s\n", path, error);
    return 1;
  }
  std::printf("%s %" PRIu64 " %016" PRIx64 "\n", path, total, h);
  return 0;
}

// fstat racing read(): one thread streams the fd with small reads,
// front to back and over again, while another fstats it in a loop.
// fstat must report the size without ever moving the reader's offset:
// every pass has to see exactly the first pass's bytes.
int run_fstat_race(const char* path) {
  const int fd = ::open(path, O_RDONLY);
  if (fd < 0) {
    std::printf("%s ERROR open\n", path);
    return 1;
  }
  struct stat first{};
  if (::fstat(fd, &first) != 0) {
    std::printf("%s ERROR fstat\n", path);
    ::close(fd);
    return 1;
  }
  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  std::atomic<bool> bad_size{false};
  std::thread statter([&] {
    started.store(true);
    while (!done.load(std::memory_order_relaxed)) {
      struct stat st{};
      if (::fstat(fd, &st) != 0 || st.st_size != first.st_size) {
        bad_size.store(true);
      }
    }
  });
  while (!started.load()) std::this_thread::yield();
  constexpr int kPasses = 2000;
  uint64_t first_hash = 0;
  uint64_t first_total = 0;
  const char* error = nullptr;
  uint8_t buf[256];
  for (int pass = 0; pass < kPasses && error == nullptr; ++pass) {
    if (::lseek(fd, 0, SEEK_SET) != 0) {
      error = "lseek";
      break;
    }
    uint64_t h = 0xcbf29ce484222325ULL;
    uint64_t total = 0;
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0) {
        error = "read";
        break;
      }
      if (n == 0) break;
      h = fnv1a(buf, static_cast<size_t>(n), h);
      total += static_cast<uint64_t>(n);
    }
    if (pass == 0) {
      first_hash = h;
      first_total = total;
    } else if (h != first_hash || total != first_total) {
      error = "offset moved under read";
    }
  }
  done.store(true);
  statter.join();
  ::close(fd);
  if (error == nullptr && bad_size.load()) error = "fstat";
  if (error != nullptr) {
    std::printf("%s ERROR %s\n", path, error);
    return 1;
  }
  std::printf("%s %" PRIu64 " %016" PRIx64 "\n", path, first_total,
              first_hash);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int first = 1;
  bool stdio_mode = false;
  if (argc == 4 && std::string_view(argv[1]) == "--copy") {
    return run_copy(argv[2], argv[3]);
  }
  if (argc > 1 && std::string_view(argv[1]) == "--fstat-race") {
    int rc = 0;
    for (int i = 2; i < argc; ++i) rc |= run_fstat_race(argv[i]);
    return rc;
  }
  if (argc > 1 && std::string_view(argv[1]) == "--stat-family") {
    int rc = 0;
    for (int i = 2; i < argc; ++i) rc |= run_stat_family(argv[i]);
    return rc;
  }
  if (argc > 1 && std::string_view(argv[1]) == "--stdio") {
    stdio_mode = true;
    first = 2;
  }
  if (stdio_mode) {
    int rc = 0;
    for (int i = first; i < argc; ++i) rc |= run_stdio(argv[i]);
    return rc;
  }
  long repeat = 1;
  if (argc > 2 && std::string_view(argv[1]) == "--repeat") {
    repeat = std::strtol(argv[2], nullptr, 10);
    first = 3;
  }
  const bool fortified =
      argc > 1 && std::string_view(argv[1]) == "--fortified";
  if (fortified) first = 2;
  for (long round = 0; round < repeat; ++round) {
    for (int i = first; i < argc; ++i) run_posix(argv[i], fortified);
  }
  return 0;
}
