// End-to-end LD_PRELOAD tests: an unmodified helper binary reads
// dataset files through the shim against a live in-process allocation
// (paper §III-F — portability without touching application code).
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/hash.h"
#include "server/hvac_proto.h"
#include "server/node_runtime.h"
#include "storage/packed_format.h"
#include "storage/posix_file.h"
#include "workload/file_tree.h"

#ifndef HVAC_INTERCEPT_SO
#error "HVAC_INTERCEPT_SO must be defined by the build"
#endif
#ifndef HVAC_TARGET_BIN
#error "HVAC_TARGET_BIN must be defined by the build"
#endif

namespace hvac {
namespace {

namespace fs = std::filesystem;

// Suffix every scratch path with the pid: ctest runs each test case as
// its own process, in parallel, and a shared literal path lets one test
// wipe another's live tree mid-run.
std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "hvac_shim_" + name + "_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Runs the helper under the shim. Returns its stdout.
std::string run_target(const std::vector<std::string>& files,
                       const std::string& dataset_dir,
                       const std::string& servers, bool preload,
                       bool stdio_mode = false,
                       const std::string& extra_env = "") {
  const std::string out_file = ::testing::TempDir() + "hvac_shim_out_" +
                               std::to_string(::getpid()) + ".txt";
  std::ostringstream cmd;
  cmd << "env ";
  if (preload) {
    cmd << "LD_PRELOAD=" << HVAC_INTERCEPT_SO << " ";
    // In -DHVAC_SANITIZE=address builds the shim precedes the ASan
    // runtime in the initial library list, which ASan rejects by
    // default. The target binary itself links the runtime, so the
    // order check is the only problem; ignored by non-ASan builds.
    cmd << "ASAN_OPTIONS=verify_asan_link_order=0 ";
  }
  if (!dataset_dir.empty()) cmd << "HVAC_DATASET_DIR=" << dataset_dir << " ";
  if (!servers.empty()) cmd << "HVAC_SERVERS=" << servers << " ";
  if (!extra_env.empty()) cmd << extra_env << " ";
  cmd << HVAC_TARGET_BIN;
  if (stdio_mode) cmd << " --stdio";
  for (const auto& f : files) cmd << " " << f;
  cmd << " > " << out_file << " 2>/dev/null";
  const int rc = std::system(cmd.str().c_str());
  EXPECT_EQ(rc, 0) << cmd.str();
  std::ifstream in(out_file);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Expected "<path> <size> <fnv>" line for a generated file.
std::string expected_line(const std::string& abs_path,
                          const std::string& rel, uint64_t size) {
  const auto data = workload::expected_contents(rel, size);
  const uint64_t h = fnv1a64(std::string_view(
      reinterpret_cast<const char*>(data.data()), data.size()));
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %" PRIu64 " %016" PRIx64, size, h);
  return abs_path + buf;
}

class InterceptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pfs_root_ = temp_dir("pfs");
    const auto spec = workload::synthetic_small(8, 4096, 0.3);
    auto tree = workload::generate_tree(pfs_root_, spec);
    ASSERT_TRUE(tree.ok());
    tree_ = std::move(tree).value();

    server::NodeRuntimeOptions o;
    o.pfs_root = pfs_root_;
    o.cache_root = temp_dir("cache");
    o.instances = 2;
    node_ = std::make_unique<server::NodeRuntime>(o);
    ASSERT_TRUE(node_->start().ok());
  }

  std::vector<std::string> abs_paths() const {
    std::vector<std::string> out;
    for (const auto& rel : tree_.relative_paths) {
      out.push_back(pfs_root_ + "/" + rel);
    }
    return out;
  }

  std::string expected_output() const {
    std::string expected;
    for (size_t i = 0; i < tree_.relative_paths.size(); ++i) {
      expected += expected_line(pfs_root_ + "/" + tree_.relative_paths[i],
                                tree_.relative_paths[i], tree_.sizes[i]);
      expected += "\n";
    }
    return expected;
  }

  std::string pfs_root_;
  workload::GeneratedTree tree_;
  std::unique_ptr<server::NodeRuntime> node_;
};

TEST_F(InterceptTest, TargetWithoutShimBaseline) {
  const std::string out = run_target(abs_paths(), "", "", /*preload=*/false);
  EXPECT_EQ(out, expected_output());
}

TEST_F(InterceptTest, ShimServesIdenticalBytes) {
  const std::string out = run_target(abs_paths(), pfs_root_,
                                     node_->endpoints_csv(),
                                     /*preload=*/true);
  EXPECT_EQ(out, expected_output());
  // The reads really went through the servers.
  const auto m = node_->aggregated_metrics();
  EXPECT_EQ(m.misses, tree_.relative_paths.size());
}

TEST_F(InterceptTest, SecondRunHitsCache) {
  (void)run_target(abs_paths(), pfs_root_, node_->endpoints_csv(), true);
  const std::string out =
      run_target(abs_paths(), pfs_root_, node_->endpoints_csv(), true);
  EXPECT_EQ(out, expected_output());
  const auto m = node_->aggregated_metrics();
  EXPECT_EQ(m.misses, tree_.relative_paths.size());
  EXPECT_EQ(m.hits, tree_.relative_paths.size());
}

TEST_F(InterceptTest, ShimWithoutEnvIsPassthrough) {
  // Preloaded but unconfigured: must behave exactly like no shim.
  const std::string out = run_target(abs_paths(), "", "", /*preload=*/true);
  EXPECT_EQ(out, expected_output());
  EXPECT_EQ(node_->aggregated_metrics().misses, 0u);
}

TEST_F(InterceptTest, PathsOutsideDatasetDirPassThrough) {
  // A file outside HVAC_DATASET_DIR is read directly, not forwarded.
  const std::string outside_dir = temp_dir("outside");
  const std::string outside = outside_dir + "/plain.bin";
  std::vector<uint8_t> data(512, 0x5a);
  ASSERT_TRUE(storage::write_file(outside, data.data(), data.size()).ok());

  const std::string out = run_target({outside}, pfs_root_,
                                     node_->endpoints_csv(), true);
  const uint64_t h = fnv1a64(std::string_view(
      reinterpret_cast<const char*>(data.data()), data.size()));
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %u %016" PRIx64 "\n", 512u, h);
  EXPECT_EQ(out, outside + buf);
  EXPECT_EQ(node_->aggregated_metrics().misses, 0u);
}

TEST_F(InterceptTest, StdioPathServedThroughShim) {
  // fopen/fseek/fread/fclose (fopencookie interposition) must deliver
  // identical bytes and really hit the cache.
  const std::string out =
      run_target(abs_paths(), pfs_root_, node_->endpoints_csv(),
                 /*preload=*/true, /*stdio_mode=*/true);
  EXPECT_EQ(out, expected_output());
  EXPECT_EQ(node_->aggregated_metrics().misses,
            tree_.relative_paths.size());
}

TEST_F(InterceptTest, StdioWithoutShimBaseline) {
  const std::string out = run_target(abs_paths(), "", "",
                                     /*preload=*/false,
                                     /*stdio_mode=*/true);
  EXPECT_EQ(out, expected_output());
}

TEST_F(InterceptTest, DeadServersFailOpenToPfs) {
  const std::string servers = node_->endpoints_csv();
  node_->stop();  // cache gone; application must still work
  const std::string out = run_target(abs_paths(), pfs_root_, servers, true);
  EXPECT_EQ(out, expected_output());
}

// fstat on a vfd is one fd-table read: a second thread fstat-ing in a
// loop never moves the offset of a read() streaming the same fd.
TEST_F(InterceptTest, FstatNeverMovesAConcurrentReader) {
  std::vector<std::string> args = {"--fstat-race"};
  for (const auto& p : abs_paths()) args.push_back(p);
  const std::string out =
      run_target(args, pfs_root_, node_->endpoints_csv(), true);
  EXPECT_EQ(out, expected_output());
}

// A _FORTIFY_SOURCE binary opens through __open_2 when its flags are
// not a compile-time constant; the shim exports it, so those opens
// reach HVAC instead of reading the PFS behind its back.
TEST_F(InterceptTest, FortifiedOpenGoesThroughTheShim) {
  std::vector<std::string> args = {"--fortified"};
  for (const auto& p : abs_paths()) args.push_back(p);
  const std::string stats = temp_dir("fortified_stats") + "/stats.json";
  const std::string out =
      run_target(args, pfs_root_, node_->endpoints_csv(), true, false,
                 "HVAC_STATS_FILE=" + stats);
  EXPECT_EQ(out, expected_output());
  EXPECT_EQ(node_->aggregated_metrics().misses, tree_.relative_paths.size());
  std::ifstream in(stats);
  std::stringstream json;
  json << in.rdbuf();
  const std::string n = std::to_string(tree_.relative_paths.size());
  EXPECT_NE(json.str().find("{\"opens\":" + n + ",\"remote_opens\":" + n +
                            ",\"fallback_opens\":0,"),
            std::string::npos)
      << json.str();
}

// fstatat, fstatat64 and statx with AT_EMPTY_PATH, and __fxstat64,
// each size a vfd as fstat does; before the shim exported them they
// reached libc with the vfd and failed with EBADF.
TEST_F(InterceptTest, StatFamilySizesAVfd) {
  std::vector<std::string> args = {"--stat-family"};
  for (const auto& p : abs_paths()) args.push_back(p);
  EXPECT_EQ(run_target(args, "", "", /*preload=*/false), expected_output());
  const std::string stats = temp_dir("stat_family_stats") + "/stats.json";
  const std::string out =
      run_target(args, pfs_root_, node_->endpoints_csv(), true, false,
                 "HVAC_STATS_FILE=" + stats);
  EXPECT_EQ(out, expected_output());
  std::ifstream in(stats);
  std::stringstream json;
  json << in.rdbuf();
  const std::string n = std::to_string(tree_.relative_paths.size());
  EXPECT_NE(json.str().find("{\"opens\":" + n + ",\"remote_opens\":" + n +
                            ",\"fallback_opens\":0,"),
            std::string::npos)
      << json.str();
}

uint64_t op_count(const server::NodeRuntime& node, uint16_t op) {
  const auto lat = node.aggregated_frame().op_latency;
  const auto it = lat.find(op);
  return it == lat.end() ? 0 : it->second.count;
}

// A re-open is one more stateless kOpen, and it reads the slab the
// first open passed, by pread: each file opened twice is 2 of 2 slab
// opens, the re-opens pass no fd, and no read goes by RPC.
TEST_F(InterceptTest, ReopenReadsTheHeldSlab) {
  // Once each, in a reader of its own: the fds the first opens pass.
  (void)run_target(abs_paths(), pfs_root_, node_->endpoints_csv(), true);
  const uint64_t first_passes = node_->aggregated_frame().zerocopy.fd_passes;
  ASSERT_GT(first_passes, 0u);

  std::vector<std::string> args = abs_paths();
  const std::vector<std::string> again = abs_paths();
  args.insert(args.end(), again.begin(), again.end());
  const std::string stats = temp_dir("reopen_stats") + "/stats.json";
  const uint64_t opens = op_count(*node_, proto::kOpen);
  const uint64_t scatters = op_count(*node_, proto::kReadScatter);
  const std::string out =
      run_target(args, pfs_root_, node_->endpoints_csv(), true, false,
                 "HVAC_STATS_FILE=" + stats);
  EXPECT_EQ(out, expected_output() + expected_output());
  std::ifstream in(stats);
  std::stringstream json;
  json << in.rdbuf();
  const std::string n = std::to_string(args.size());
  EXPECT_NE(json.str().find("\"passed_fd_opens\":" + n), std::string::npos)
      << json.str();
  EXPECT_EQ(op_count(*node_, proto::kOpen) - opens, args.size());
  EXPECT_EQ(node_->aggregated_frame().zerocopy.fd_passes - first_passes,
            first_passes);
  EXPECT_EQ(op_count(*node_, proto::kReadScatter), scatters);
}

// A warm sample of at most proto::kMaxInlineBytes costs one round
// trip: the stateless kOpen returns its bytes, EOF is known from the
// size, and close is local.
TEST_F(InterceptTest, WarmSmallSampleIsOneOpenRpc) {
  for (const uint64_t size : tree_.sizes) {
    ASSERT_LE(size, proto::kMaxInlineBytes);
  }
  (void)run_target(abs_paths(), pfs_root_, node_->endpoints_csv(), true);
  const uint64_t opens = op_count(*node_, proto::kOpen);
  const uint64_t hits = node_->aggregated_frame().cache.hits;
  const std::string out =
      run_target(abs_paths(), pfs_root_, node_->endpoints_csv(), true);
  EXPECT_EQ(out, expected_output());
  EXPECT_EQ(op_count(*node_, proto::kOpen) - opens,
            tree_.relative_paths.size());
  EXPECT_EQ(node_->aggregated_frame().cache.hits - hits,
            tree_.relative_paths.size());
  for (const uint16_t op :
       {proto::kRead, proto::kClose, proto::kReadScatter}) {
    EXPECT_EQ(op_count(*node_, op), 0u) << "opcode " << op;
  }
}

// A shim reader of a 1 MiB file on this node costs one server RPC, the
// kOpen: its reply passes a read-only fd on the cached copy, and every
// read() is a pread on it (DESIGN.md §20). The packed-index probe (one
// per process, and no packed tree here) is off, so the count is exact.
TEST_F(InterceptTest, LocalMiBSampleIsOneOpenRpc) {
  const std::string rel = "mib/sample.bin";
  const uint64_t size = 1u << 20;
  const auto data = workload::expected_contents(rel, size);
  ASSERT_TRUE(
      storage::write_file(pfs_root_ + "/" + rel, data.data(), size).ok());
  auto total_rpcs = [&] {
    uint64_t n = 0;
    for (const auto& [op, snap] : node_->aggregated_frame().op_latency) {
      n += snap.count;
    }
    return n;
  };
  const uint64_t before = total_rpcs();
  const uint64_t passes = node_->aggregated_frame().zerocopy.fd_passes;
  const std::string out =
      run_target({pfs_root_ + "/" + rel}, pfs_root_, node_->endpoints_csv(),
                 true, false, "HVAC_PACK=0 HVAC_PFS_FALLBACK=0");
  EXPECT_EQ(out, expected_line(pfs_root_ + "/" + rel, rel, size) + "\n");
  EXPECT_EQ(total_rpcs() - before, 1u);
  EXPECT_EQ(op_count(*node_, proto::kOpen), 1u);
  EXPECT_EQ(node_->aggregated_frame().zerocopy.fd_passes - passes, 1u);
}

// The shim's servers run on this host, so its connections skip the TCP
// stack: each one arrives over the server's node-local alias.
TEST_F(InterceptTest, ShimReaderConnectsOverTheAlias) {
  const std::string out =
      run_target(abs_paths(), pfs_root_, node_->endpoints_csv(), true);
  EXPECT_EQ(out, expected_output());
  uint64_t conns = 0;
  uint64_t local = 0;
  for (const auto& r : node_->aggregated_frame().reactor.reactors) {
    conns += r.conns;
    local += r.local_conns;
  }
  EXPECT_GT(conns, 0u);
  EXPECT_EQ(local, conns);
}

// A warm packed sample of at most proto::kMaxInlineBytes costs one
// round trip too: the open resolves from the packed index, the first
// 8 KiB read() fetches the whole sample in one kReadScatter, and the
// rest of the sample — and EOF — are local. Nothing is read ahead.
TEST_F(InterceptTest, WarmPackedSampleIsOneScatterRpc) {
  const std::string root = temp_dir("packed_pfs");
  auto tree = workload::generate_tree(
      root, workload::synthetic_small(16, 16384, 0.3));
  ASSERT_TRUE(tree.ok());
  bool multi_read = false;
  for (const uint64_t size : tree->sizes) {
    ASSERT_LE(size, proto::kMaxInlineBytes);
    multi_read = multi_read || size > 8192;  // the target reads 8 KiB
  }
  ASSERT_TRUE(multi_read);
  storage::PackOptions pack;
  pack.container_bytes = 64 << 10;
  ASSERT_TRUE(storage::pack_tree(root, pack).ok());
  std::vector<std::string> paths;
  std::string expected;
  for (size_t i = 0; i < tree->relative_paths.size(); ++i) {
    const std::string& rel = tree->relative_paths[i];
    fs::remove(root + "/" + rel);
    paths.push_back(root + "/" + rel);
    expected += expected_line(root + "/" + rel, rel, tree->sizes[i]) + "\n";
  }
  server::NodeRuntimeOptions o;
  o.pfs_root = root;
  o.cache_root = temp_dir("packed_cache");
  o.instances = 2;
  server::NodeRuntime node(o);
  ASSERT_TRUE(node.start().ok());

  EXPECT_EQ(run_target(paths, root, node.endpoints_csv(), true), expected);
  const uint64_t scatters = op_count(node, proto::kReadScatter);
  const std::string stats = temp_dir("packed_stats") + "/stats.json";
  EXPECT_EQ(run_target(paths, root, node.endpoints_csv(), true, false,
                       "HVAC_STATS_FILE=" + stats),
            expected);
  EXPECT_EQ(op_count(node, proto::kReadScatter) - scatters, paths.size());
  EXPECT_EQ(op_count(node, proto::kOpen), 0u);
  std::ifstream in(stats);
  std::stringstream json;
  json << in.rdbuf();
  EXPECT_NE(json.str().find("\"read_ahead\":{\"issued\":0,"),
            std::string::npos)
      << json.str();
  node.stop();
}

// Runs `cmd` through the shell; returns its stdout, or nullopt when
// it exits non-zero.
std::optional<std::string> capture(const std::string& cmd) {
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return std::nullopt;
  std::string out;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  if (::pclose(pipe) != 0) return std::nullopt;
  return out;
}

// CPython's builtin open() goes through the *64 names libpython
// imports (openat64, fstat64): a 20 KB sample whose bytes ride the
// open reply and a 300 KB one read through a passed cache fd both
// come back whole, with st_size from the vfd, and neither falls back
// to the PFS.
TEST_F(InterceptTest, CPythonBuiltinOpenReadsThroughTheShim) {
  // The real interpreter, not a version-manager wrapper script.
  const auto which = capture(
      "python3 -c 'import sys; print(sys.executable)' 2>/dev/null");
  if (!which.has_value() || which->size() < 2) {
    GTEST_SKIP() << "python3 not found";
  }
  const std::string python = which->substr(0, which->find('\n'));

  const std::string root = temp_dir("py_pfs");
  std::vector<std::string> paths;
  for (const size_t size : {20'000, 300'000}) {
    std::string bytes(size, '\0');
    for (size_t i = 0; i < size; ++i) bytes[i] = char((i * 131 + size) >> 3);
    paths.push_back(root + "/sample_" + std::to_string(size) + ".bin");
    std::ofstream(paths.back(), std::ios::binary) << bytes;
  }
  server::NodeRuntimeOptions o;
  o.pfs_root = root;
  o.cache_root = temp_dir("py_cache");
  server::NodeRuntime node(o);
  ASSERT_TRUE(node.start().ok());

  // Outside the dataset: only the samples go through the shim.
  const std::string script = temp_dir("py_script") + "/read.py";
  std::ofstream(script) <<
      "import hashlib, os, sys\n"
      "for p in sys.argv[1:]:\n"
      "    with open(p, 'rb') as f:\n"
      "        data = f.read()\n"
      "        size = os.fstat(f.fileno()).st_size\n"
      "    print(p, len(data), size, hashlib.sha256(data).hexdigest())\n";
  std::string args = python + " " + script;
  for (const auto& p : paths) args += " " + p;

  const auto direct = capture(args);
  ASSERT_TRUE(direct.has_value());
  ASSERT_NE(direct->find(" 300000 300000 "), std::string::npos) << *direct;
  const std::string stats = root + "/stats.json";
  for (int pass = 0; pass < 2; ++pass) {  // cold, then warm
    const auto shimmed =
        capture("env LD_PRELOAD=" + std::string(HVAC_INTERCEPT_SO) +
                " ASAN_OPTIONS=verify_asan_link_order=0 HVAC_DATASET_DIR=" +
                root + " HVAC_SERVERS=" + node.endpoints_csv() +
                " HVAC_STATS_FILE=" + stats + " " + args);
    ASSERT_TRUE(shimmed.has_value()) << "pass " << pass;
    EXPECT_EQ(*shimmed, *direct) << "pass " << pass;
    std::ifstream in(stats);
    std::stringstream json;
    json << in.rdbuf();
    EXPECT_NE(json.str().find("{\"opens\":2,\"remote_opens\":2,"
                              "\"fallback_opens\":0,"),
              std::string::npos)
        << json.str();
  }
  node.stop();
}

// A script stored under the dataset dir: CPython opens it with
// fopen64, marks fileno() of the stream non-inheritable (ioctl
// FIOCLEX) and fstats it, so the shim's stream must answer fileno with
// its vfd and the vfd must take those calls. The script then runs
// posix_fadvise and fcntl on a sample's vfd itself. Everything, the
// script included, is read through HVAC.
TEST_F(InterceptTest, CPythonRunsScriptStoredUnderDatasetDir) {
  const auto which = capture(
      "python3 -c 'import sys; print(sys.executable)' 2>/dev/null");
  if (!which.has_value() || which->size() < 2) {
    GTEST_SKIP() << "python3 not found";
  }
  const std::string python = which->substr(0, which->find('\n'));

  const std::string root = temp_dir("py_script_pfs");
  const std::string sample = root + "/sample.bin";
  std::ofstream(sample, std::ios::binary) << std::string(30'000, 'x');
  const std::string script = root + "/read.py";
  std::ofstream(script) <<
      "import fcntl, hashlib, os, sys\n"
      "fd = os.open(sys.argv[1], os.O_RDONLY)\n"
      "os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_SEQUENTIAL)\n"
      "fd_flags = fcntl.fcntl(fd, fcntl.F_GETFD)\n"
      "mode = fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_ACCMODE\n"
      "data = os.read(fd, 1 << 20)\n"
      "os.close(fd)\n"
      "print(len(data), fd_flags, mode, hashlib.sha256(data).hexdigest())\n";
  server::NodeRuntimeOptions o;
  o.pfs_root = root;
  o.cache_root = temp_dir("py_script_cache");
  server::NodeRuntime node(o);
  ASSERT_TRUE(node.start().ok());

  const std::string args = python + " " + script + " " + sample;
  const auto direct = capture(args);
  ASSERT_TRUE(direct.has_value());
  ASSERT_EQ(direct->rfind("30000 1 0 ", 0), 0u) << *direct;
  const std::string stats = temp_dir("py_script_stats") + "/stats.json";
  const auto shimmed =
      capture("env LD_PRELOAD=" + std::string(HVAC_INTERCEPT_SO) +
              " ASAN_OPTIONS=verify_asan_link_order=0 HVAC_DATASET_DIR=" +
              root + " HVAC_SERVERS=" + node.endpoints_csv() +
              " HVAC_STATS_FILE=" + stats + " " + args);
  ASSERT_TRUE(shimmed.has_value());
  EXPECT_EQ(*shimmed, *direct);
  // The script's opens (CPython's fopen64, and its zipimport probe of
  // the same path) and the sample's, all through HVAC.
  std::ifstream in(stats);
  std::stringstream json;
  json << in.rdbuf();
  unsigned opens = 0, remote = 0, fallback = 1;
  ASSERT_EQ(std::sscanf(json.str().c_str(),
                        "{\"opens\":%u,\"remote_opens\":%u,"
                        "\"fallback_opens\":%u,",
                        &opens, &remote, &fallback),
            3)
      << json.str();
  EXPECT_GE(opens, 2u);
  EXPECT_EQ(remote, opens);
  EXPECT_EQ(fallback, 0u);
  node.stop();
}

// A shim writer of another uid gets no fd on the named file: its
// checkpoint goes by kWrite, lands byte-exact on the PFS, and never
// falls back to the PFS itself (which uid 65534 could not write).
TEST_F(InterceptTest, ForeignUidShimWriterUsesKWrite) {
  if (::geteuid() != 0 || ::access("/usr/bin/setpriv", X_OK) != 0) {
    GTEST_SKIP() << "needs root and setpriv to run a writer uid";
  }
  // The build tree may sit where uid 65534 cannot reach: run copies.
  const std::string bin = temp_dir("uid_bin");
  const std::string shim = bin + "/shim.so";
  const std::string target = bin + "/target";
  fs::copy_file(HVAC_INTERCEPT_SO, shim);
  fs::copy_file(HVAC_TARGET_BIN, target);
  const std::string src = bin + "/src.bin";
  const auto data = workload::expected_contents("src.bin", 300'000);
  ASSERT_TRUE(storage::write_file(src, data.data(), data.size()).ok());
  for (const std::string& f : {bin, shim, target, src}) {
    ASSERT_EQ(::chmod(f.c_str(), 0755), 0) << f;
  }
  const std::string dst = pfs_root_ + "/ckpt/uid.bin";
  const uint64_t passes = node_->aggregated_frame().zerocopy.fd_passes;
  std::ostringstream cmd;
  cmd << "setpriv --reuid=65534 --regid=65534 --clear-groups env"
      << " LD_PRELOAD=" << shim << " ASAN_OPTIONS=verify_asan_link_order=0"
      << " HVAC_DATASET_DIR=" << pfs_root_
      << " HVAC_SERVERS=" << node_->endpoints_csv() << " " << target
      << " --copy " << src << " " << dst << " > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.str().c_str()), 0) << cmd.str();

  const auto wb = node_->aggregated_frame().write_back;
  EXPECT_EQ(wb.writes, (data.size() + 65535) / 65536);  // 64 KiB writes
  EXPECT_EQ(wb.local_write_bytes, data.size());
  EXPECT_EQ(node_->aggregated_frame().zerocopy.fd_passes, passes);
  Result<std::vector<uint8_t>> got = storage::read_file(dst);
  for (int i = 0; i < 500 && (!got.ok() || *got != data); ++i) {
    ::usleep(10 * 1000);
    got = storage::read_file(dst);
  }
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  EXPECT_TRUE(*got == data);
}

// Read fds hold no server state, so shim clients SIGKILLed mid-epoch
// leave nothing behind: the server's remote-fd gauge stays 0 while
// they run and after they die.
TEST_F(InterceptTest, KilledShimClientsLeaveNoServerFds) {
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) env.emplace_back(*e);
  env.push_back(std::string("LD_PRELOAD=") + HVAC_INTERCEPT_SO);
  env.push_back("ASAN_OPTIONS=verify_asan_link_order=0");
  env.push_back("HVAC_DATASET_DIR=" + pfs_root_);
  env.push_back("HVAC_SERVERS=" + node_->endpoints_csv());
  std::vector<std::string> args = {HVAC_TARGET_BIN, "--repeat", "1000000"};
  for (const auto& p : abs_paths()) args.push_back(p);
  std::vector<char*> argv, envp;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  for (auto& e : env) envp.push_back(e.data());
  envp.push_back(nullptr);

  auto expect_no_fds = [&] {
    for (size_t i = 0; i < node_->instance_count(); ++i) {
      EXPECT_EQ(node_->instance(i).open_remote_fds(), 0u);
    }
  };
  for (int round = 0; round < 5; ++round) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    pid_t pid = -1;
    const int rc = ::posix_spawn(&pid, HVAC_TARGET_BIN, &actions, nullptr,
                                 argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&actions);
    ASSERT_EQ(rc, 0);
    // Mid-epoch: wait until this client has opened samples, sampling
    // the gauge while it runs.
    const uint64_t opens = op_count(*node_, proto::kOpen);
    for (int i = 0; i < 10000 && op_count(*node_, proto::kOpen) < opens + 20;
         ++i) {
      expect_no_fds();
      ::usleep(1000);
    }
    EXPECT_GE(op_count(*node_, proto::kOpen), opens + 20);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFSIGNALED(status));
    expect_no_fds();
  }
}

}  // namespace
}  // namespace hvac
