// libhvac_intercept.so — the LD_PRELOAD interposition layer
// (paper §III-F: "HVAC is built using an LD_PRELOAD mechanism for
// intercepting I/O related function calls", so DL applications need
// no code changes).
//
// Routing rules:
//   * Only read-only opens of paths under HVAC_DATASET_DIR are
//     redirected to HVAC; everything else goes to the real libc.
//   * Virtual fds live at >= FdTable::kVirtualFdBase, far above any
//     real descriptor, so read/lseek/close route by range.
//   * A thread-local recursion guard keeps the HVAC client's own
//     syscalls (socket I/O, PFS fallback open/read) from re-entering
//     the shim.
//   * If bootstrap fails (env unset, servers unreachable) the shim
//     degrades to pure passthrough — the application must never
//     break because the cache is missing (fail-open, §III-H).
#include <dlfcn.h>
#include <fcntl.h>
#include <stdarg.h>
#include <stdio.h>  // fopencookie
#include <sys/ioctl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "client/hvac_client.h"
#include "common/env.h"
#include "common/fault_injection.h"
#include "common/log.h"
#include "common/trace.h"
#include "core/fd_table.h"
#include "core/metrics.h"

namespace {

using hvac::client::HvacClient;
using hvac::client::options_from_env;
using hvac::core::FdTable;

// ---- real libc entry points --------------------------------------------

using open_fn = int (*)(const char*, int, ...);
using openat_fn = int (*)(int, const char*, int, ...);
using read_fn = ssize_t (*)(int, void*, size_t);
using pread_fn = ssize_t (*)(int, void*, size_t, off_t);
using write_fn = ssize_t (*)(int, const void*, size_t);
using pwrite_fn = ssize_t (*)(int, const void*, size_t, off_t);
using lseek_fn = off_t (*)(int, off_t, int);
using close_fn = int (*)(int);
using fsync_fn = int (*)(int);

template <typename Fn>
Fn resolve(const char* name) {
  void* sym = ::dlsym(RTLD_NEXT, name);
  return reinterpret_cast<Fn>(sym);
}

open_fn real_open() {
  static open_fn fn = resolve<open_fn>("open");
  return fn;
}
open_fn real_open64() {
  static open_fn fn = resolve<open_fn>("open64");
  return fn;
}
openat_fn real_openat() {
  static openat_fn fn = resolve<openat_fn>("openat");
  return fn;
}
read_fn real_read() {
  static read_fn fn = resolve<read_fn>("read");
  return fn;
}
pread_fn real_pread() {
  static pread_fn fn = resolve<pread_fn>("pread");
  return fn;
}
write_fn real_write() {
  static write_fn fn = resolve<write_fn>("write");
  return fn;
}
pwrite_fn real_pwrite() {
  static pwrite_fn fn = resolve<pwrite_fn>("pwrite");
  return fn;
}
fsync_fn real_fsync() {
  static fsync_fn fn = resolve<fsync_fn>("fsync");
  return fn;
}
fsync_fn real_fdatasync() {
  static fsync_fn fn = resolve<fsync_fn>("fdatasync");
  return fn;
}
lseek_fn real_lseek() {
  static lseek_fn fn = resolve<lseek_fn>("lseek");
  return fn;
}
close_fn real_close() {
  static close_fn fn = resolve<close_fn>("close");
  return fn;
}

// ---- recursion guard ------------------------------------------------------

thread_local int g_in_shim = 0;

class ShimGuard {
 public:
  ShimGuard() { ++g_in_shim; }
  ~ShimGuard() { --g_in_shim; }
  ShimGuard(const ShimGuard&) = delete;
  ShimGuard& operator=(const ShimGuard&) = delete;
};

// ---- client bootstrap ------------------------------------------------------

std::atomic<int> g_state{0};  // 0 = uninit, 1 = active, 2 = disabled
HvacClient* g_client = nullptr;  // leaked on purpose: outlives exit hooks
std::mutex g_init_mutex;

// The streams fopen handed out and the vfd each reads (a cookie stream
// has no fd of its own): fileno() answers the vfd, so a caller can
// fstat or fcntl the stream as it would a real one.
std::mutex g_streams_mutex;
std::unordered_map<FILE*, int>& shim_streams() {
  static auto* streams = new std::unordered_map<FILE*, int>;  // leaked
  return *streams;
}

// HVAC_STATS_FILE: dump the client's counters as JSON when the
// application exits, so a training job leaves a per-rank I/O summary
// behind without anyone instrumenting it (shim-side counterpart of
// `hvacctl metrics --json`).
void dump_stats_at_exit() {
  const auto path = hvac::env_string("HVAC_STATS_FILE");
  if (!path.has_value() || path->empty() || g_client == nullptr) return;
  ShimGuard guard;  // plain libc I/O below must not re-enter the shim
  FILE* out = ::fopen(path->c_str(), "w");
  if (out == nullptr) return;
  const std::string json =
      hvac::client::stats_to_json(g_client->stats());
  std::fputs(json.c_str(), out);
  std::fputc('\n', out);
  ::fclose(out);
}

bool client_active() {
  int state = g_state.load(std::memory_order_acquire);
  if (state == 1) return true;
  if (state == 2) return false;
  std::lock_guard<std::mutex> lock(g_init_mutex);
  state = g_state.load(std::memory_order_acquire);
  if (state != 0) return state == 1;
  ShimGuard guard;  // bootstrap does real I/O
  if (hvac::env_bool_or("HVAC_INTERCEPT_DISABLE", false)) {
    g_state.store(2, std::memory_order_release);
    return false;
  }
  // Arm HVAC_FAULT here, inside the guard, rather than from some
  // static constructor: interposed libc symbols are callable before
  // our own globals are built, and the harness init only touches
  // getenv + its own statics (constructor-safe by design).
  hvac::fault::init_from_env();
  auto options = options_from_env();
  if (!options.ok()) {
    HVAC_LOG_INFO("hvac shim passthrough: " << options.error().to_string());
    g_state.store(2, std::memory_order_release);
    return false;
  }
  g_client = new HvacClient(std::move(options).value());
  HVAC_LOG_INFO("hvac shim active; dataset="
                << g_client->options().dataset_dir << " servers="
                << g_client->options().server_endpoints.size());
  std::atexit(dump_stats_at_exit);
  g_state.store(1, std::memory_order_release);
  return true;
}

bool want_intercept(const char* path, int flags) {
  // Copy to a local first: glibc declares these parameters nonnull,
  // but a defensive shim must not trust callers.
  const char* volatile p = path;
  if (g_in_shim > 0 || p == nullptr) return false;
  if ((flags & O_ACCMODE) != O_RDONLY) return false;  // reads only here
  if (!client_active()) return false;
  ShimGuard guard;
  return g_client->eligible(path);
}

// Checkpoint writes: O_WRONLY|O_CREAT opens under the dataset dir
// route to the write-back tier. Plain O_WRONLY (no O_CREAT) passes
// through — the write channel always creates its backing file, so
// routing a create-less open would succeed where POSIX says ENOENT.
// O_RDWR, O_APPEND and O_EXCL pass through too: the write channel has
// no read-back, append-offset or exclusivity semantics, and
// mis-promising those would corrupt checkpoints.
bool want_intercept_write(const char* path, int flags) {
  const char* volatile p = path;
  if (g_in_shim > 0 || p == nullptr) return false;
  if ((flags & O_ACCMODE) != O_WRONLY) return false;
  if ((flags & O_CREAT) == 0) return false;
  if ((flags & (O_APPEND | O_EXCL)) != 0) return false;
  if (!client_active()) return false;
  ShimGuard guard;
  return g_client->eligible(path);
}

// Independent wall-clock measurement of every intercepted read, taken
// at the shim boundary (the closest observable proxy for trainer
// stall). The client's per-bucket stall attribution must reconcile
// with this total — the telemetry CI leg asserts it within tolerance.
class ShimReadTimer {
 public:
  ShimReadTimer() : t0_(hvac::trace::now_ns()) {}
  ~ShimReadTimer() {
    auto& sc = hvac::core::StallCounters::global();
    sc.shim_read_wall_ns.fetch_add(hvac::trace::now_ns() - t0_,
                                   std::memory_order_relaxed);
    sc.shim_reads.fetch_add(1, std::memory_order_relaxed);
  }
  ShimReadTimer(const ShimReadTimer&) = delete;
  ShimReadTimer& operator=(const ShimReadTimer&) = delete;

 private:
  uint64_t t0_;
};

int do_open(const char* path) {
  ShimGuard guard;
  // Shim entry points root the trace: everything below (client open,
  // RPCs, mover work on the server) hangs off this span.
  hvac::trace::Span span("shim.open");
  auto vfd = g_client->open(path);
  if (!vfd.ok()) {
    errno = hvac::error_code_to_errno(vfd.error().code);
    return -1;
  }
  return *vfd;
}

// The fcntl commands CPython issues on every fd it opens, answered for
// a vfd: it means nothing to an exec'd image, so it reads as
// close-on-exec and F_SETFD is accepted and dropped; F_GETFL gives its
// access mode. nullopt: not a vfd or another command, for libc.
std::optional<int> vfd_fcntl(int fd, int cmd) {
  if (g_in_shim > 0 || !FdTable::is_virtual(fd) || g_client == nullptr ||
      (cmd != F_GETFD && cmd != F_SETFD && cmd != F_GETFL)) {
    return std::nullopt;
  }
  ShimGuard guard;
  auto mode = g_client->access_mode(fd);
  if (!mode.ok()) {
    errno = EBADF;
    return -1;
  }
  if (cmd == F_GETFD) return FD_CLOEXEC;
  return cmd == F_GETFL ? *mode : 0;
}

int do_open_write(const char* path, bool trunc) {
  ShimGuard guard;
  hvac::trace::Span span("shim.open_write");
  auto vfd = g_client->open_write(path, trunc);
  if (!vfd.ok()) {
    errno = hvac::error_code_to_errno(vfd.error().code);
    return -1;
  }
  return *vfd;
}

}  // namespace

extern "C" {

int open(const char* path, int flags, ...) {
  mode_t mode = 0;
  if ((flags & O_CREAT) != 0 || (flags & O_TMPFILE) == O_TMPFILE) {
    va_list ap;
    va_start(ap, flags);
    mode = va_arg(ap, mode_t);
    va_end(ap);
  }
  if (want_intercept(path, flags)) return do_open(path);
  if (want_intercept_write(path, flags)) {
    return do_open_write(path, (flags & O_TRUNC) != 0);
  }
  return real_open()(path, flags, mode);
}

int open64(const char* path, int flags, ...) {
  mode_t mode = 0;
  if ((flags & O_CREAT) != 0 || (flags & O_TMPFILE) == O_TMPFILE) {
    va_list ap;
    va_start(ap, flags);
    mode = va_arg(ap, mode_t);
    va_end(ap);
  }
  if (want_intercept(path, flags)) return do_open(path);
  if (want_intercept_write(path, flags)) {
    return do_open_write(path, (flags & O_TRUNC) != 0);
  }
  open_fn fn = real_open64() != nullptr ? real_open64() : real_open();
  return fn(path, flags, mode);
}

int openat(int dirfd, const char* path, int flags, ...) {
  mode_t mode = 0;
  if ((flags & O_CREAT) != 0 || (flags & O_TMPFILE) == O_TMPFILE) {
    va_list ap;
    va_start(ap, flags);
    mode = va_arg(ap, mode_t);
    va_end(ap);
  }
  // Only absolute paths (or AT_FDCWD-relative under the dataset dir
  // when cwd-independent) can be routed; relative-to-dirfd paths pass
  // through untouched.
  const char* volatile path_checked = path;
  if (path_checked != nullptr && path_checked[0] == '/') {
    if (want_intercept(path, flags)) return do_open(path);
    if (want_intercept_write(path, flags)) {
      return do_open_write(path, (flags & O_TRUNC) != 0);
    }
  }
  return real_openat()(dirfd, path, flags, mode);
}

// A _FORTIFY_SOURCE build calls these for an open whose flags are not
// a compile-time constant; the flags never carry O_CREAT (glibc aborts
// the caller first), so there is no mode.
int __open_2(const char* path, int flags) { return open(path, flags); }

int __open64_2(const char* path, int flags) { return open64(path, flags); }

// CPython and other large-file-aware builds import the *64 names.
int openat64(int dirfd, const char* path, int flags, ...) {
  mode_t mode = 0;
  if ((flags & O_CREAT) != 0 || (flags & O_TMPFILE) == O_TMPFILE) {
    va_list ap;
    va_start(ap, flags);
    mode = va_arg(ap, mode_t);
    va_end(ap);
  }
  return openat(dirfd, path, flags, mode);
}

ssize_t read(int fd, void* buf, size_t count) {
  if (g_in_shim == 0 && FdTable::is_virtual(fd) && g_client != nullptr) {
    ShimGuard guard;
    hvac::trace::Span span("shim.read", count);
    ShimReadTimer timer;
    auto n = g_client->read(fd, buf, count);
    if (!n.ok()) {
      errno = hvac::error_code_to_errno(n.error().code);
      return -1;
    }
    return static_cast<ssize_t>(*n);
  }
  return real_read()(fd, buf, count);
}

ssize_t pread(int fd, void* buf, size_t count, off_t offset) {
  if (g_in_shim == 0 && FdTable::is_virtual(fd) && g_client != nullptr) {
    ShimGuard guard;
    hvac::trace::Span span("shim.pread", count);
    ShimReadTimer timer;
    auto n = g_client->pread(fd, buf, count,
                             static_cast<uint64_t>(offset));
    if (!n.ok()) {
      errno = hvac::error_code_to_errno(n.error().code);
      return -1;
    }
    return static_cast<ssize_t>(*n);
  }
  return real_pread()(fd, buf, count, offset);
}

ssize_t pread64(int fd, void* buf, size_t count, off_t offset) {
  return pread(fd, buf, count, offset);
}

ssize_t write(int fd, const void* buf, size_t count) {
  if (g_in_shim == 0 && FdTable::is_virtual(fd) && g_client != nullptr) {
    ShimGuard guard;
    hvac::trace::Span span("shim.write", count);
    auto n = g_client->write(fd, buf, count);
    if (!n.ok()) {
      errno = hvac::error_code_to_errno(n.error().code);
      return -1;
    }
    return static_cast<ssize_t>(*n);
  }
  return real_write()(fd, buf, count);
}

ssize_t pwrite(int fd, const void* buf, size_t count, off_t offset) {
  if (g_in_shim == 0 && FdTable::is_virtual(fd) && g_client != nullptr) {
    ShimGuard guard;
    hvac::trace::Span span("shim.write", count);
    auto n = g_client->pwrite(fd, buf, count,
                              static_cast<uint64_t>(offset));
    if (!n.ok()) {
      errno = hvac::error_code_to_errno(n.error().code);
      return -1;
    }
    return static_cast<ssize_t>(*n);
  }
  return real_pwrite()(fd, buf, count, offset);
}

ssize_t pwrite64(int fd, const void* buf, size_t count, off_t offset) {
  return pwrite(fd, buf, count, offset);
}

int fsync(int fd) {
  if (g_in_shim == 0 && FdTable::is_virtual(fd) && g_client != nullptr) {
    ShimGuard guard;
    hvac::trace::Span span("shim.fsync");
    auto status = g_client->fsync(fd);
    if (!status.ok()) {
      errno = hvac::error_code_to_errno(status.error().code);
      return -1;
    }
    return 0;
  }
  return real_fsync()(fd);
}

int fdatasync(int fd) {
  if (g_in_shim == 0 && FdTable::is_virtual(fd) && g_client != nullptr) {
    // Same barrier as fsync: it fdatasyncs the file, then commits its size.
    return fsync(fd);
  }
  return real_fdatasync()(fd);
}

off_t lseek(int fd, off_t offset, int whence) {
  if (g_in_shim == 0 && FdTable::is_virtual(fd) && g_client != nullptr) {
    ShimGuard guard;
    auto pos = g_client->lseek(fd, static_cast<int64_t>(offset), whence);
    if (!pos.ok()) {
      errno = hvac::error_code_to_errno(pos.error().code);
      return -1;
    }
    return static_cast<off_t>(*pos);
  }
  return real_lseek()(fd, offset, whence);
}

off_t lseek64(int fd, off_t offset, int whence) {
  return lseek(fd, offset, whence);
}

int close(int fd) {
  if (g_in_shim == 0 && FdTable::is_virtual(fd) && g_client != nullptr) {
    ShimGuard guard;
    hvac::trace::Span span("shim.close");
    auto status = g_client->close(fd);
    if (!status.ok()) {
      errno = hvac::error_code_to_errno(status.error().code);
      return -1;
    }
    return 0;
  }
  return real_close()(fd);
}

// ---- stdio interception ----------------------------------------------------
// Many data loaders (NumPy, PIL, plain Python file objects) read via
// stdio rather than raw syscalls. fopencookie() lets us hand back a
// real FILE* whose underlying I/O is routed through the HVAC client,
// so buffered fread/fseek work unmodified.

static ssize_t hvac_cookie_read(void* cookie, char* buf, size_t size) {
  const int vfd = static_cast<int>(reinterpret_cast<intptr_t>(cookie));
  ShimGuard guard;
  ShimReadTimer timer;
  auto n = g_client->read(vfd, buf, size);
  if (!n.ok()) {
    errno = hvac::error_code_to_errno(n.error().code);
    return -1;
  }
  return static_cast<ssize_t>(*n);
}

static int hvac_cookie_seek(void* cookie, off64_t* offset, int whence) {
  const int vfd = static_cast<int>(reinterpret_cast<intptr_t>(cookie));
  ShimGuard guard;
  auto pos = g_client->lseek(vfd, static_cast<int64_t>(*offset), whence);
  if (!pos.ok()) {
    errno = hvac::error_code_to_errno(pos.error().code);
    return -1;
  }
  *offset = static_cast<off64_t>(*pos);
  return 0;
}

static int hvac_cookie_close(void* cookie) {
  const int vfd = static_cast<int>(reinterpret_cast<intptr_t>(cookie));
  {
    std::lock_guard<std::mutex> lock(g_streams_mutex);
    std::erase_if(shim_streams(),
                  [vfd](const auto& entry) { return entry.second == vfd; });
  }
  ShimGuard guard;
  auto status = g_client->close(vfd);
  if (!status.ok()) {
    errno = hvac::error_code_to_errno(status.error().code);
    return -1;
  }
  return 0;
}

static bool mode_is_read_only(const char* mode) {
  // "r", "rb", "rm", "rbe", ... — anything without +/w/a.
  if (mode == nullptr || mode[0] != 'r') return false;
  for (const char* p = mode + 1; *p != '\0'; ++p) {
    if (*p == '+' || *p == 'w' || *p == 'a') return false;
  }
  return true;
}

static FILE* fopen_impl(const char* path) {
  const int vfd = do_open(path);
  if (vfd < 0) return nullptr;
  cookie_io_functions_t io{};
  io.read = hvac_cookie_read;
  io.write = nullptr;  // read-only cache
  io.seek = hvac_cookie_seek;
  io.close = hvac_cookie_close;
  FILE* f = ::fopencookie(reinterpret_cast<void*>(intptr_t{vfd}), "r", io);
  if (f == nullptr) {
    ShimGuard guard;
    (void)g_client->close(vfd);
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(g_streams_mutex);
  shim_streams()[f] = vfd;
  return f;
}

FILE* fopen(const char* path, const char* mode) {
  if (mode_is_read_only(mode) && want_intercept(path, O_RDONLY)) {
    return fopen_impl(path);
  }
  using fopen_fn = FILE* (*)(const char*, const char*);
  static fopen_fn fn = resolve<fopen_fn>("fopen");
  return fn(path, mode);
}

FILE* fopen64(const char* path, const char* mode) {
  if (mode_is_read_only(mode) && want_intercept(path, O_RDONLY)) {
    return fopen_impl(path);
  }
  using fopen_fn = FILE* (*)(const char*, const char*);
  static fopen_fn fn = resolve<fopen_fn>("fopen64");
  if (fn == nullptr) fn = resolve<fopen_fn>("fopen");
  return fn(path, mode);
}

// Applications commonly fstat a freshly opened fd to size their read
// buffer; synthesize a regular-file stat for virtual fds. The size is
// one fd-table read, so a concurrent read() on the same vfd keeps its
// offset.
int fstat(int fd, struct stat* st) {
  struct stat* volatile st_checked = st;
  if (g_in_shim == 0 && FdTable::is_virtual(fd) && g_client != nullptr &&
      st_checked != nullptr) {
    ShimGuard guard;
    auto size = g_client->fstat_size(fd);
    if (!size.ok()) {
      errno = EBADF;
      return -1;
    }
    std::memset(st, 0, sizeof(*st));
    st->st_mode = S_IFREG | 0444;
    st->st_size = static_cast<off_t>(*size);
    st->st_blksize = 4096;
    st->st_nlink = 1;
    return 0;
  }
  using fstat_fn = int (*)(int, struct stat*);
  static fstat_fn fn = resolve<fstat_fn>("fstat");
  if (fn == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  return fn(fd, st);
}

// libpython's builtin open() sizes its buffer with fstat64; without
// this it reaches libc with a virtual fd and fails with EBADF. On LP64
// glibc the two structs are one layout and fstat64 is fstat's alias.
static_assert(sizeof(struct stat) == sizeof(struct stat64),
              "fstat64 forwards to fstat");
int fstat64(int fd, struct stat64* st) {
  return fstat(fd, reinterpret_cast<struct stat*>(st));
}

// The other stat forms that name an fd: the *at and statx calls with
// AT_EMPTY_PATH and an empty path (glibc's fstatat is the newfstatat
// syscall), and __fxstat64, the pre-2.33 entry point older binaries
// import. On a vfd each answers as fstat does; every other call goes
// to libc.
static bool names_vfd(int dirfd, const char* path, int flags) {
  return FdTable::is_virtual(dirfd) && (flags & AT_EMPTY_PATH) != 0 &&
         path != nullptr && path[0] == '\0';
}

int fstatat(int dirfd, const char* path, struct stat* st, int flags) {
  if (names_vfd(dirfd, path, flags)) return fstat(dirfd, st);
  using fstatat_fn = int (*)(int, const char*, struct stat*, int);
  static fstatat_fn fn = resolve<fstatat_fn>("fstatat");
  return fn(dirfd, path, st, flags);
}

int fstatat64(int dirfd, const char* path, struct stat64* st, int flags) {
  if (names_vfd(dirfd, path, flags)) {
    return fstat(dirfd, reinterpret_cast<struct stat*>(st));
  }
  using fstatat64_fn = int (*)(int, const char*, struct stat64*, int);
  static fstatat64_fn fn = resolve<fstatat64_fn>("fstatat64");
  return fn(dirfd, path, st, flags);
}

int __fxstat64(int ver, int fd, struct stat64* st) {
  if (FdTable::is_virtual(fd)) {
    return fstat(fd, reinterpret_cast<struct stat*>(st));
  }
  using fxstat64_fn = int (*)(int, int, struct stat64*);
  static fxstat64_fn fn = resolve<fxstat64_fn>("__fxstat64");
  return fn(ver, fd, st);
}

int statx(int dirfd, const char* path, int flags, unsigned int mask,
          struct statx* stx) {
  if (names_vfd(dirfd, path, flags)) {
    struct stat st{};
    if (fstat(dirfd, &st) != 0) return -1;
    std::memset(stx, 0, sizeof(*stx));
    stx->stx_mask = STATX_TYPE | STATX_MODE | STATX_NLINK | STATX_SIZE;
    stx->stx_mode = static_cast<uint16_t>(st.st_mode);
    stx->stx_nlink = static_cast<uint32_t>(st.st_nlink);
    stx->stx_size = static_cast<uint64_t>(st.st_size);
    stx->stx_blksize = static_cast<uint32_t>(st.st_blksize);
    return 0;
  }
  using statx_fn = int (*)(int, const char*, int, unsigned int, struct statx*);
  static statx_fn fn = resolve<statx_fn>("statx");
  return fn(dirfd, path, flags, mask, stx);
}

// The vfd behind a stream fopen handed out; other streams go to libc.
// libpython reads the fd of the script it runs this way.
static int stream_vfd(FILE* stream) {
  if (g_client == nullptr) return -1;
  std::lock_guard<std::mutex> lock(g_streams_mutex);
  const auto it = shim_streams().find(stream);
  return it == shim_streams().end() ? -1 : it->second;
}

int fileno(FILE* stream) {
  if (const int vfd = stream_vfd(stream); vfd >= 0) return vfd;
  using fileno_fn = int (*)(FILE*);
  static fileno_fn fn = resolve<fileno_fn>("fileno");
  return fn(stream);
}

int fileno_unlocked(FILE* stream) {
  if (const int vfd = stream_vfd(stream); vfd >= 0) return vfd;
  using fileno_fn = int (*)(FILE*);
  static fileno_fn fn = resolve<fileno_fn>("fileno_unlocked");
  return fn(stream);
}

int fcntl(int fd, int cmd, ...) {
  va_list ap;
  va_start(ap, cmd);
  void* arg = va_arg(ap, void*);
  va_end(ap);
  if (const auto answer = vfd_fcntl(fd, cmd)) return *answer;
  using fcntl_fn = int (*)(int, int, ...);
  static fcntl_fn fn = resolve<fcntl_fn>("fcntl");
  return fn(fd, cmd, arg);
}

int fcntl64(int fd, int cmd, ...) {
  va_list ap;
  va_start(ap, cmd);
  void* arg = va_arg(ap, void*);
  va_end(ap);
  if (const auto answer = vfd_fcntl(fd, cmd)) return *answer;
  using fcntl_fn = int (*)(int, int, ...);
  static fcntl_fn fn = resolve<fcntl_fn>("fcntl64");
  if (fn == nullptr) fn = resolve<fcntl_fn>("fcntl");
  return fn(fd, cmd, arg);
}

// A vfd is no device: once vfd_fcntl's F_GETFD has found it open, only
// the close-on-exec requests (CPython's fast way to mark an fd
// non-inheritable) succeed, as no-ops like F_SETFD.
int ioctl(int fd, unsigned long request, ...) {
  va_list ap;
  va_start(ap, request);
  void* arg = va_arg(ap, void*);
  va_end(ap);
  if (const auto open = vfd_fcntl(fd, F_GETFD)) {
    if (*open < 0) return -1;
    if (request == FIOCLEX || request == FIONCLEX) return 0;
    errno = ENOTTY;
    return -1;
  }
  using ioctl_fn = int (*)(int, unsigned long, ...);
  static ioctl_fn fn = resolve<ioctl_fn>("ioctl");
  return fn(fd, request, arg);
}

// Page-cache advice means nothing to a vfd: an open one takes it and
// drops it (CPython's os.posix_fadvise, a loader's readahead hint).
// posix_fadvise reports its error as the return value, not in errno.
int posix_fadvise(int fd, off_t offset, off_t len, int advice) {
  if (const auto open = vfd_fcntl(fd, F_GETFD)) return *open < 0 ? EBADF : 0;
  using fadvise_fn = int (*)(int, off_t, off_t, int);
  static fadvise_fn fn = resolve<fadvise_fn>("posix_fadvise");
  return fn(fd, offset, len, advice);
}

int posix_fadvise64(int fd, off64_t offset, off64_t len, int advice) {
  if (const auto open = vfd_fcntl(fd, F_GETFD)) return *open < 0 ? EBADF : 0;
  using fadvise64_fn = int (*)(int, off64_t, off64_t, int);
  static fadvise64_fn fn = resolve<fadvise64_fn>("posix_fadvise64");
  return fn(fd, offset, len, advice);
}

ssize_t readahead(int fd, off64_t offset, size_t count) {
  if (const auto open = vfd_fcntl(fd, F_GETFD)) return *open < 0 ? -1 : 0;
  using readahead_fn = ssize_t (*)(int, off64_t, size_t);
  static readahead_fn fn = resolve<readahead_fn>("readahead");
  return fn(fd, offset, count);
}

}  // extern "C"
