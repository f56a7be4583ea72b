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
#include <sstream>

#include "common/hash.h"
#include "server/hvac_proto.h"
#include "server/node_runtime.h"
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
                       bool stdio_mode = false) {
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

uint64_t op_count(const server::NodeRuntime& node, uint16_t op) {
  const auto lat = node.aggregated_frame().op_latency;
  const auto it = lat.find(op);
  return it == lat.end() ? 0 : it->second.count;
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
  env.push_back("HVAC_META_TTL_MS=0");  // every re-open sends a kOpen
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
