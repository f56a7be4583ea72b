// End-to-end tests of the out-of-process deployment: the hvacd daemon
// is spawned as a real child process, hvacctl talks to it, the
// LD_PRELOAD shim routes an unmodified binary through it, and SIGTERM
// teardown purges the cache (job-lifetime semantics).
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <sys/wait.h>
#include <thread>
#include <tuple>
#include <unistd.h>

#include "client/hvac_client.h"
#include "common/env.h"
#include "core/metrics_frame.h"
#include "core/metrics_schema.h"
#include "rpc/health.h"
#include "rpc/rpc_client.h"
#include "server/hvac_proto.h"
#include "storage/posix_file.h"
#include "workload/file_tree.h"

#ifndef HVAC_HVACD_BIN
#error "HVAC_HVACD_BIN must be defined by the build"
#endif
#ifndef HVAC_HVACCTL_BIN
#error "HVAC_HVACCTL_BIN must be defined by the build"
#endif

namespace hvac {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "hvac_daemon_" + name +
                          "_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Spawns hvacd, waits for its endpoint line on the port file.
class DaemonFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    pfs_root_ = temp_dir("pfs");
    cache_root_ = temp_dir("cache");
    port_file_ = temp_dir("meta") + "/ports";
    const auto spec = workload::synthetic_small(12, 4096, 0.2);
    auto tree = workload::generate_tree(pfs_root_, spec);
    ASSERT_TRUE(tree.ok());
    tree_ = std::move(tree).value();

    pid_ = ::fork();
    ASSERT_GE(pid_, 0);
    if (pid_ == 0) {
      ::execl(HVAC_HVACD_BIN, HVAC_HVACD_BIN, "--pfs-root",
              pfs_root_.c_str(), "--cache-dir", cache_root_.c_str(),
              "--instances", "2", "--port-file", port_file_.c_str(),
              static_cast<char*>(nullptr));
      _exit(127);
    }
    // Wait for the port file to appear.
    for (int i = 0; i < 200 && endpoints_.empty(); ++i) {
      if (storage::file_exists(port_file_)) {
        std::ifstream in(port_file_);
        std::getline(in, endpoints_);
      }
      if (endpoints_.empty()) ::usleep(20 * 1000);
    }
    ASSERT_FALSE(endpoints_.empty()) << "hvacd did not come up";
  }

  void TearDown() override {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  int run_cmd(const std::string& cmd, std::string* out = nullptr) {
    const std::string out_file = temp_dir("out") + "/cmd.txt";
    const int rc =
        std::system((cmd + " > " + out_file + " 2>&1").c_str());
    if (out != nullptr) {
      std::ifstream in(out_file);
      std::stringstream ss;
      ss << in.rdbuf();
      *out = ss.str();
    }
    return rc;
  }

  std::string pfs_root_, cache_root_, port_file_, endpoints_;
  workload::GeneratedTree tree_;
  pid_t pid_ = -1;
};

TEST_F(DaemonFixture, ClientReadsThroughDaemon) {
  client::HvacClientOptions copts;
  copts.dataset_dir = pfs_root_;
  copts.server_endpoints = split_csv(endpoints_);
  ASSERT_EQ(copts.server_endpoints.size(), 2u);  // --instances 2
  client::HvacClient client(copts);

  for (size_t i = 0; i < tree_.relative_paths.size(); ++i) {
    const std::string& rel = tree_.relative_paths[i];
    auto vfd = client.open(pfs_root_ + "/" + rel);
    ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
    std::vector<uint8_t> data(tree_.sizes[i]);
    const auto n = client.pread(*vfd, data.data(), data.size(), 0);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, tree_.sizes[i]);
    EXPECT_TRUE(workload::verify_contents(rel, data));
    ASSERT_TRUE(client.close(*vfd).ok());
  }
  EXPECT_EQ(client.stats().fallback_opens, 0u);
}

TEST_F(DaemonFixture, HvacctlPingAndMetrics) {
  std::string out;
  EXPECT_EQ(run_cmd(std::string(HVAC_HVACCTL_BIN) + " ping " + endpoints_,
                    &out),
            0);
  EXPECT_NE(out.find("OK"), std::string::npos);
  EXPECT_EQ(out.find("UNAVAILABLE"), std::string::npos);

  // Warm a file, then metrics must show the miss.
  const std::string first_endpoint = split_csv(endpoints_)[0];
  std::string warm_out;
  (void)run_cmd(std::string(HVAC_HVACCTL_BIN) + " warm " + first_endpoint +
                    " " + tree_.relative_paths[0],
                &warm_out);
  EXPECT_NE(warm_out.find("cached"), std::string::npos);

  std::string stat_out;
  EXPECT_EQ(run_cmd(std::string(HVAC_HVACCTL_BIN) + " stat " +
                        first_endpoint + " " + tree_.relative_paths[0],
                    &stat_out),
            0);
  EXPECT_NE(stat_out.find(std::to_string(tree_.sizes[0]) + " bytes"),
            std::string::npos);

  EXPECT_EQ(run_cmd(std::string(HVAC_HVACCTL_BIN) + " metrics " +
                        endpoints_,
                    &out),
            0);
  EXPECT_NE(out.find("misses"), std::string::npos);
  // The text view walks the schema: every section and word shows up.
  for (const core::FieldSpec& field : core::frame_fields()) {
    if (field.section == core::kV1Prefix) continue;
    EXPECT_NE(out.find(std::string("  ") + field.group + " "),
              std::string::npos)
        << field.group;
    EXPECT_NE(out.find(std::string(" ") + field.name + "="),
              std::string::npos)
        << field.group << "." << field.name;
  }
  for (const core::ReactorField& field : core::reactor_fields()) {
    EXPECT_NE(out.find(std::string(" ") + field.name + "="),
              std::string::npos)
        << field.name;
  }
  EXPECT_NE(out.find("paced_delay"), std::string::npos);
}

TEST_F(DaemonFixture, SigtermPurgesCache) {
  // Populate the cache.
  client::HvacClientOptions copts;
  copts.dataset_dir = pfs_root_;
  copts.server_endpoints = split_csv(endpoints_);
  client::HvacClient client(copts);
  for (const auto& rel : tree_.relative_paths) {
    auto vfd = client.open(pfs_root_ + "/" + rel);
    ASSERT_TRUE(vfd.ok());
    uint8_t b;
    (void)client.pread(*vfd, &b, 1, 0);
    ASSERT_TRUE(client.close(*vfd).ok());
  }
  size_t cached_files = 0;
  for (const auto& entry : fs::recursive_directory_iterator(cache_root_)) {
    if (entry.is_regular_file()) ++cached_files;
  }
  EXPECT_GT(cached_files, 0u);

  ::kill(pid_, SIGTERM);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  size_t remaining = 0;
  for (const auto& entry : fs::recursive_directory_iterator(cache_root_)) {
    if (entry.is_regular_file()) ++remaining;
  }
  EXPECT_EQ(remaining, 0u);  // cache lifetime == job lifetime
}

// ---- kill -9 crash consistency ----

pid_t spawn_hvacd(const std::string& pfs, const std::string& cache,
                  const std::string& port_file, const char* fault_spec,
                  const std::string& bind = "127.0.0.1") {
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (fault_spec != nullptr) {
      ::setenv("HVAC_FAULT", fault_spec, 1);
    } else {
      ::unsetenv("HVAC_FAULT");
    }
    ::execl(HVAC_HVACD_BIN, HVAC_HVACD_BIN, "--pfs-root", pfs.c_str(),
            "--cache-dir", cache.c_str(), "--instances", "1", "--bind",
            bind.c_str(), "--port-file", port_file.c_str(),
            static_cast<char*>(nullptr));
    _exit(127);
  }
  return pid;
}

std::string wait_endpoints(const std::string& port_file) {
  std::string endpoints;
  for (int i = 0; i < 300 && endpoints.empty(); ++i) {
    if (storage::file_exists(port_file)) {
      std::ifstream in(port_file);
      std::getline(in, endpoints);
    }
    if (endpoints.empty()) ::usleep(20 * 1000);
  }
  return endpoints;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The write path's core promise: a kill -9 at any instant after an
// acked fsync loses nothing. The first incarnation runs with the
// flusher's PFS leg fault-injected dead, so every acked byte exists
// ONLY in the journal + local tier when the SIGKILL lands; the second
// incarnation must replay the journal and land every file on the PFS
// with exact content.
TEST(WriteCrash, KillNineLosesNoAckedFsyncBytes) {
  const std::string pfs = temp_dir("crash_pfs");
  const std::string cache = temp_dir("crash_cache");
  const std::string meta = temp_dir("crash_meta");

  pid_t pid = spawn_hvacd(pfs, cache, meta + "/ports1", "pfs_write:error");
  ASSERT_GT(pid, 0);
  const std::string endpoints = wait_endpoints(meta + "/ports1");
  ASSERT_FALSE(endpoints.empty()) << "hvacd did not come up";

  // Distinct deterministic payloads; file 0 also gets an overwrite so
  // replay ordering (later record wins) is exercised end to end.
  std::vector<std::string> expected;
  {
    client::HvacClientOptions copts;
    copts.dataset_dir = pfs;
    copts.server_endpoints = split_csv(endpoints);
    copts.allow_pfs_fallback = false;  // writes must be write-back
    client::HvacClient client(copts);
    for (int i = 0; i < 4; ++i) {
      std::string payload(1000 + 100 * i, 'A' + i);
      for (size_t k = 0; k < payload.size(); k += 7) payload[k] = '0' + i;
      const std::string path =
          pfs + "/ckpt/shard" + std::to_string(i) + ".bin";
      auto vfd = client.open_write(path, true);
      ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
      const size_t half = payload.size() / 2;
      auto w1 = client.write(*vfd, payload.data(), half);
      ASSERT_TRUE(w1.ok()) << w1.error().to_string();
      auto w2 = client.write(*vfd, payload.data() + half,
                             payload.size() - half);
      ASSERT_TRUE(w2.ok());
      if (i == 0) {
        auto w3 = client.pwrite(*vfd, "OVERWRITE", 9, 16);
        ASSERT_TRUE(w3.ok());
        payload.replace(16, 9, "OVERWRITE");
      }
      ASSERT_TRUE(client.fsync(*vfd).ok());
      ASSERT_TRUE(client.close(*vfd).ok());
      expected.push_back(payload);
    }
  }

  // The faulted flusher means nothing reached the PFS: the acked
  // bytes exist only in the journal and the local write-back tier.
  EXPECT_FALSE(fs::exists(pfs + "/ckpt/shard0.bin"));

  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);

  pid = spawn_hvacd(pfs, cache, meta + "/ports2", nullptr);
  ASSERT_GT(pid, 0);
  ASSERT_FALSE(wait_endpoints(meta + "/ports2").empty())
      << "hvacd did not restart";

  // Replay re-applies the journal and re-queues the dirty files; the
  // flusher (healthy now) lands them on the PFS. copy_in renames into
  // place, so a polled read never sees a partial file.
  for (int i = 0; i < 4; ++i) {
    const std::string path =
        pfs + "/ckpt/shard" + std::to_string(i) + ".bin";
    std::string got;
    for (int tries = 0; tries < 1000; ++tries) {
      if (fs::exists(path)) {
        got = read_file(path);
        if (got.size() == expected[i].size()) break;
      }
      ::usleep(10 * 1000);
    }
    EXPECT_EQ(got.size(), expected[i].size()) << "shard " << i;
    EXPECT_EQ(got, expected[i]) << "shard " << i;
  }

  // The operator's view: `hvacctl journal` reports the replay summary.
  const std::string endpoints2 = wait_endpoints(meta + "/ports2");
  const std::string out_file = meta + "/journal.txt";
  const int rc = std::system((std::string(HVAC_HVACCTL_BIN) + " journal " +
                              endpoints2 + " --json > " + out_file + " 2>&1")
                                 .c_str());
  EXPECT_EQ(rc, 0);
  const std::string out = read_file(out_file);
  EXPECT_NE(out.find("\"replay_writes\":"), std::string::npos) << out;
  EXPECT_EQ(out.find("\"replay_writes\":0,"), std::string::npos) << out;

  ::kill(pid, SIGTERM);
  ::waitpid(pid, &status, 0);
}

// A kill -9 inside a barrier, after the file's fdatasync and before its
// size record (the write_barrier fault site stalls it there): the bytes
// an earlier barrier acked land on the PFS, and the tail written since,
// synced but never acked, is not presented as committed.
TEST(WriteCrash, KillNineMidBarrierKeepsOnlyAckedBytes) {
  const std::string pfs = temp_dir("barrier_pfs");
  const std::string cache = temp_dir("barrier_cache");
  const std::string meta = temp_dir("barrier_meta");
  pid_t pid = spawn_hvacd(pfs, cache, meta + "/ports1",
                          "write_barrier:delay_ms=5000:after=1");
  ASSERT_GT(pid, 0);
  const std::string endpoints = wait_endpoints(meta + "/ports1");
  ASSERT_FALSE(endpoints.empty()) << "hvacd did not come up";

  const std::string acked(1000, 'A');
  {
    client::HvacClientOptions copts;
    copts.dataset_dir = pfs;
    copts.server_endpoints = split_csv(endpoints);
    copts.allow_pfs_fallback = false;
    copts.rpc.max_retries = 0;
    client::HvacClient client(copts);
    auto vfd = client.open_write(pfs + "/ckpt/b.bin", true);
    ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
    ASSERT_TRUE(client.write(*vfd, acked.data(), acked.size()).ok());
    ASSERT_TRUE(client.fsync(*vfd).ok());  // the acked barrier
    ASSERT_TRUE(client.write(*vfd, "TAILTAIL", 8).ok());
    EXPECT_EQ(client.stats().writes, 2u);
    std::thread stalled([&] { EXPECT_FALSE(client.fsync(*vfd).ok()); });
    ::usleep(500 * 1000);  // the barrier is in its stall
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    stalled.join();
  }
  EXPECT_FALSE(fs::exists(pfs + "/ckpt/b.bin"));

  pid = spawn_hvacd(pfs, cache, meta + "/ports2", nullptr);
  ASSERT_GT(pid, 0);
  ASSERT_FALSE(wait_endpoints(meta + "/ports2").empty())
      << "hvacd did not restart";
  std::string got;
  for (int tries = 0; tries < 1000 && got.empty(); ++tries) {
    if (fs::exists(pfs + "/ckpt/b.bin")) got = read_file(pfs + "/ckpt/b.bin");
    if (got.empty()) ::usleep(10 * 1000);
  }
  EXPECT_EQ(got, acked);
  int status = 0;
  ::kill(pid, SIGTERM);
  ::waitpid(pid, &status, 0);
}

// A writer that outlives a kill -9 of its hvacd keeps its passed fd on
// the named file and can pwrite into it with no RPC, after the restart
// has trimmed the file to its committed size. The replayed flush copies
// the committed size only: the PFS gets exactly the acked bytes.
TEST(WriteCrash, SurvivingWriterAfterRestartAddsNothingToThePfs) {
  const std::string pfs = temp_dir("survivor_pfs");
  const std::string cache = temp_dir("survivor_cache");
  const std::string meta = temp_dir("survivor_meta");
  pid_t pid = spawn_hvacd(pfs, cache, meta + "/ports1", nullptr);
  ASSERT_GT(pid, 0);
  const std::string endpoints = wait_endpoints(meta + "/ports1");
  ASSERT_FALSE(endpoints.empty()) << "hvacd did not come up";

  const std::string acked(1000, 'A');
  client::HvacClientOptions copts;
  copts.dataset_dir = pfs;
  copts.server_endpoints = split_csv(endpoints);
  copts.allow_pfs_fallback = false;
  copts.rpc.max_retries = 0;
  client::HvacClient client(copts);
  auto vfd = client.open_write(pfs + "/ckpt/s.bin", true);
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  ASSERT_TRUE(client.write(*vfd, acked.data(), acked.size()).ok());
  ASSERT_TRUE(client.fsync(*vfd).ok());  // the acked barrier
  int status = 0;
  ::kill(pid, SIGKILL);
  ::waitpid(pid, &status, 0);
  EXPECT_FALSE(fs::exists(pfs + "/ckpt/s.bin"));

  // The replayed flush stalls, so the surviving write lands first.
  pid = spawn_hvacd(pfs, cache, meta + "/ports2", "pfs_write:delay_ms=1500");
  ASSERT_GT(pid, 0);
  ASSERT_FALSE(wait_endpoints(meta + "/ports2").empty())
      << "hvacd did not restart";
  ASSERT_EQ(client.write(*vfd, "TAILTAIL", 8).value(), 8u);
  EXPECT_EQ(client.stats().writes, 2u);
  // The tail reached the trimmed named file (the same inode).
  bool tail_landed = false;
  for (const auto& e : fs::recursive_directory_iterator(cache)) {
    if (e.is_regular_file() && e.file_size() == acked.size() + 8) {
      tail_landed = read_file(e.path().string()) == acked + "TAILTAIL";
    }
  }
  EXPECT_TRUE(tail_landed);

  std::string got;
  for (int tries = 0; tries < 1000 && got.empty(); ++tries) {
    if (fs::exists(pfs + "/ckpt/s.bin")) got = read_file(pfs + "/ckpt/s.bin");
    if (got.empty()) ::usleep(10 * 1000);
  }
  EXPECT_EQ(got, acked);
  ::kill(pid, SIGTERM);
  ::waitpid(pid, &status, 0);
}

size_t count_slabs(const std::string& dir) {
  size_t n = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == ".slab") ++n;
  }
  return n;
}

// A kill -9 after a cached epoch leaves the daemon's cache slabs on
// disk. The next daemon on the same cache dir deletes them at start,
// and still replays the journal from the named write-back files.
TEST(WriteCrash, KillNineLeavesNoStaleSlabs) {
  const std::string pfs = temp_dir("slab_pfs");
  const std::string cache = temp_dir("slab_cache");
  const std::string meta = temp_dir("slab_meta");
  auto tree = workload::generate_tree(
      pfs, workload::synthetic_small(16, 4096, 0.2));
  ASSERT_TRUE(tree.ok());

  pid_t pid = spawn_hvacd(pfs, cache, meta + "/ports1", "pfs_write:error");
  ASSERT_GT(pid, 0);
  const std::string endpoints = wait_endpoints(meta + "/ports1");
  ASSERT_FALSE(endpoints.empty()) << "hvacd did not come up";
  const std::string payload(3000, 'S');
  {
    client::HvacClientOptions copts;
    copts.dataset_dir = pfs;
    copts.server_endpoints = split_csv(endpoints);
    copts.allow_pfs_fallback = false;
    client::HvacClient client(copts);
    for (size_t i = 0; i < tree->relative_paths.size(); ++i) {
      const std::string& rel = tree->relative_paths[i];
      auto vfd = client.open(pfs + "/" + rel);
      ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
      std::vector<uint8_t> buf(tree->sizes[i]);
      auto n = client.pread(*vfd, buf.data(), buf.size(), 0);
      ASSERT_TRUE(n.ok());
      ASSERT_TRUE(workload::verify_contents(rel, buf)) << rel;
      ASSERT_TRUE(client.close(*vfd).ok());
    }
    auto vfd = client.open_write(pfs + "/ckpt/s.bin", true);
    ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
    ASSERT_TRUE(client.write(*vfd, payload.data(), payload.size()).ok());
    ASSERT_TRUE(client.fsync(*vfd).ok());
    ASSERT_TRUE(client.close(*vfd).ok());
  }
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  EXPECT_GT(count_slabs(cache), 0u);
  EXPECT_FALSE(fs::exists(pfs + "/ckpt/s.bin"));

  pid = spawn_hvacd(pfs, cache, meta + "/ports2", nullptr);
  ASSERT_GT(pid, 0);
  ASSERT_FALSE(wait_endpoints(meta + "/ports2").empty())
      << "hvacd did not restart";
  EXPECT_EQ(count_slabs(cache), 0u);
  std::string got;
  for (int tries = 0; tries < 1000 && got.size() != payload.size();
       ++tries) {
    if (fs::exists(pfs + "/ckpt/s.bin")) got = read_file(pfs + "/ckpt/s.bin");
    if (got.size() != payload.size()) ::usleep(10 * 1000);
  }
  EXPECT_EQ(got, payload);

  ::kill(pid, SIGTERM);
  ::waitpid(pid, &status, 0);
}

// ---- node-local alias across a daemon crash ----

// Connections the daemon at `endpoint` accepted: all, and over its
// node-local alias.
std::pair<uint64_t, uint64_t> daemon_conns(const std::string& endpoint) {
  rpc::RpcClient client(rpc::Endpoint{endpoint});
  const auto resp = client.call(proto::kMetrics, rpc::Bytes{});
  EXPECT_TRUE(resp.ok()) << resp.error().to_string();
  if (!resp.ok()) return {0, 0};
  const auto frame = core::MetricsFrame::decode(*resp);
  EXPECT_TRUE(frame.ok());
  if (!frame.ok()) return {0, 0};
  std::pair<uint64_t, uint64_t> total{0, 0};
  for (const auto& r : frame->reactor.reactors) {
    total.first += r.conns;
    total.second += r.local_conns;
  }
  return total;
}

// A kill -9'd daemon leaves no alias behind (the kernel drops an
// abstract name with its socket), so its successor on the same port
// binds the alias again and a client's redial lands on it.
TEST(DaemonRestart, KillNineThenSamePortReconnectsThroughAlias) {
  const std::string pfs = temp_dir("restart_pfs");
  const std::string cache = temp_dir("restart_cache");
  const std::string meta = temp_dir("restart_meta");
  pid_t pid = spawn_hvacd(pfs, cache, meta + "/ports1", nullptr);
  ASSERT_GT(pid, 0);
  const std::string endpoint = wait_endpoints(meta + "/ports1");
  ASSERT_FALSE(endpoint.empty()) << "hvacd did not come up";

  rpc::RpcClient client(rpc::Endpoint{endpoint}, rpc::RpcClientOptions{1000, 1000});
  ASSERT_TRUE(client.call(proto::kPing, rpc::Bytes{}).ok());
  auto [conns, local] = daemon_conns(endpoint);
  EXPECT_EQ(conns, 2u);  // `client` and the metrics probe
  EXPECT_EQ(local, conns);

  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  EXPECT_FALSE(client.call(proto::kPing, rpc::Bytes{}).ok());

  pid = spawn_hvacd(pfs, cache, meta + "/ports2", nullptr, endpoint);
  ASSERT_GT(pid, 0);
  ASSERT_EQ(wait_endpoints(meta + "/ports2"), endpoint);
  rpc::HealthRegistry::global().reset();  // forget the failed ping
  ASSERT_TRUE(client.call(proto::kPing, rpc::Bytes{}).ok());
  std::tie(conns, local) = daemon_conns(endpoint);
  EXPECT_EQ(conns, 2u);
  EXPECT_EQ(local, conns);

  ::kill(pid, SIGTERM);
  ::waitpid(pid, &status, 0);
}

// ---- passed cache fds across a daemon crash ----

size_t slab_files(const std::string& dir) {
  size_t n = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.path().extension() == ".slab") ++n;
  }
  return n;
}

// This process's fds on slab files, or only on those that are gone.
size_t slab_fds(bool deleted_only) {
  size_t n = 0;
  for (const auto& e : fs::directory_iterator("/proc/self/fd")) {
    std::error_code ec;
    const std::string target = fs::read_symlink(e.path(), ec).string();
    if (ec) continue;
    const bool deleted = target.size() > 10 &&
                         target.compare(target.size() - 10, 10,
                                        " (deleted)") == 0;
    const std::string name = deleted ? target.substr(0, target.size() - 10)
                                     : target;
    if (fs::path(name).extension() == ".slab" && (deleted || !deleted_only)) {
      ++n;
    }
  }
  return n;
}

// A client holding a slab fd (DESIGN.md §20) keeps reading the exact
// bytes after the daemon is killed with kill -9 and a successor on the
// same cache dir and port deletes the dead daemon's slabs: the held fd
// pins the inode, and slots are never rewritten. The successor holds
// none of the old slabs, so a new open takes a new slab fd, and the
// swept slab leaves the client's table when it arrives.
TEST(DaemonRestart, HeldCacheFdReadsSurviveKillNineAndSlabSweep) {
  const std::string pfs = temp_dir("heldfd_pfs");
  const std::string cache = temp_dir("heldfd_cache");
  const std::string meta = temp_dir("heldfd_meta");
  const size_t size = 2u << 20;
  const auto expected = workload::expected_contents("big.bin", size);
  ASSERT_TRUE(
      storage::write_file(pfs + "/big.bin", expected.data(), size).ok());
  pid_t pid = spawn_hvacd(pfs, cache, meta + "/ports1", nullptr);
  ASSERT_GT(pid, 0);
  const std::string endpoint = wait_endpoints(meta + "/ports1");
  ASSERT_FALSE(endpoint.empty()) << "hvacd did not come up";

  client::HvacClientOptions copts;
  copts.dataset_dir = pfs;
  copts.server_endpoints = {endpoint};
  copts.allow_pfs_fallback = false;
  copts.meta_ttl_ms = 0;
  client::HvacClient client(copts);
  auto vfd = client.open(pfs + "/big.bin");
  ASSERT_TRUE(vfd.ok()) << vfd.error().to_string();
  ASSERT_EQ(client.stats().passed_fd_opens, 1u);
  std::vector<uint8_t> data(size);
  ASSERT_EQ(client.read(*vfd, data.data(), size / 2).value(), size / 2);

  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  EXPECT_GT(slab_files(cache), 0u);  // the dead daemon's slabs remain
  pid = spawn_hvacd(pfs, cache, meta + "/ports2", nullptr, endpoint);
  ASSERT_GT(pid, 0);
  ASSERT_EQ(wait_endpoints(meta + "/ports2"), endpoint);
  EXPECT_EQ(slab_files(cache), 0u);  // ... until its successor starts

  ASSERT_EQ(client.read(*vfd, data.data() + size / 2, size / 2).value(),
            size / 2);
  EXPECT_EQ(data, expected);

  // The first call after the kill finds the old connection dead; the
  // idempotent stat retries on a fresh one.
  ASSERT_TRUE(client.stat_size(pfs + "/big.bin").ok());
  auto again = client.open(pfs + "/big.bin");
  ASSERT_TRUE(again.ok()) << again.error().to_string();
  EXPECT_EQ(client.stats().passed_fd_opens, 2u);
  EXPECT_EQ(slab_fds(/*deleted_only=*/true), 1u);  // the old vfd's
  ASSERT_TRUE(client.close(*vfd).ok());
  EXPECT_EQ(slab_fds(/*deleted_only=*/true), 0u);
  EXPECT_EQ(slab_fds(/*deleted_only=*/false), 1u);
  std::vector<uint8_t> fresh(size);
  ASSERT_EQ(client.pread(*again, fresh.data(), size, 0).value(), size);
  EXPECT_EQ(fresh, expected);
  ASSERT_TRUE(client.close(*again).ok());
  EXPECT_EQ(client.stats().fallback_opens, 0u);

  ::kill(pid, SIGTERM);
  ::waitpid(pid, &status, 0);
}

// ---- hvacctl top over the kTimeSeries ring ----

// Two server instances with a fast collector cadence: `hvacctl top`
// must compute live rates for both endpoints from the server-side
// time-series ring (no caller-side state).
TEST(TelemetryTop, RendersLiveRatesForTwoEndpoints) {
  const std::string pfs = temp_dir("top_pfs");
  const std::string cache = temp_dir("top_cache");
  const std::string meta = temp_dir("top_meta");
  const auto spec = workload::synthetic_small(8, 4096, 0.2);
  auto tree = workload::generate_tree(pfs, spec);
  ASSERT_TRUE(tree.ok());

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::setenv("HVAC_TS_INTERVAL_MS", "100", 1);
    ::execl(HVAC_HVACD_BIN, HVAC_HVACD_BIN, "--pfs-root", pfs.c_str(),
            "--cache-dir", cache.c_str(), "--instances", "2", "--port-file",
            (meta + "/ports").c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  const std::string endpoints = wait_endpoints(meta + "/ports");
  ASSERT_FALSE(endpoints.empty()) << "hvacd did not come up";
  ASSERT_EQ(split_csv(endpoints).size(), 2u);

  // Traffic on both instances so the sampled deltas are not all zero.
  {
    client::HvacClientOptions copts;
    copts.dataset_dir = pfs;
    copts.server_endpoints = split_csv(endpoints);
    client::HvacClient client(copts);
    for (const auto& rel : tree->relative_paths) {
      auto vfd = client.open(pfs + "/" + rel);
      ASSERT_TRUE(vfd.ok());
      std::vector<uint8_t> buf(4096);
      (void)client.pread(*vfd, buf.data(), buf.size(), 0);
      ASSERT_TRUE(client.close(*vfd).ok());
    }
  }

  // Poll until both rings have a sample (collector ticks every 100ms).
  std::string out;
  bool have_rates = false;
  for (int tries = 0; tries < 50 && !have_rates; ++tries) {
    ::usleep(100 * 1000);
    const std::string out_file = meta + "/top.json";
    const int rc =
        std::system((std::string(HVAC_HVACCTL_BIN) + " top " + endpoints +
                     " --count 1 --json > " + out_file + " 2>&1")
                        .c_str());
    if (rc != 0) continue;
    out = read_file(out_file);
    have_rates = out.find("\"rates\"") != std::string::npos &&
                 out.find("\"failures\":0") != std::string::npos;
  }
  ASSERT_TRUE(have_rates) << out;

  // Both endpoints report an up row with ring metadata and a rates
  // object computed from the last interval delta.
  size_t rows = 0;
  for (size_t at = out.find("\"endpoint\":"); at != std::string::npos;
       at = out.find("\"endpoint\":", at + 1)) {
    ++rows;
  }
  EXPECT_EQ(rows, 2u) << out;
  EXPECT_NE(out.find("\"up\":true"), std::string::npos) << out;
  EXPECT_NE(out.find("\"interval_ms\":100"), std::string::npos) << out;
  EXPECT_NE(out.find("\"reads_per_s\":"), std::string::npos) << out;
  EXPECT_NE(out.find("\"hit_pct\":"), std::string::npos) << out;

  ::kill(pid, SIGTERM);
  int status = 0;
  ::waitpid(pid, &status, 0);
}

}  // namespace
}  // namespace hvac
