// hvacd — the standalone HVAC server daemon.
//
// On Summit the paper spawns the server via the job script
// (`alloc_flags "hvac"`); the equivalent here is launching hvacd on
// each node of the allocation:
//
//   hvacd --pfs-root /lustre/dataset --cache-dir /mnt/nvme/hvac
//         --instances 2 --bind 0.0.0.0 [--port-file /tmp/hvac.ports]
//
// It prints the endpoint list (HVAC_SERVERS fragment for this node)
// on stdout, optionally writes it to --port-file, then serves until
// SIGINT/SIGTERM. On shutdown the node-local cache is purged — cache
// lifetime equals job lifetime (paper §III-D).
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "common/env.h"
#include "server/node_runtime.h"
#include "server/prom_exporter.h"
#include "storage/posix_file.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --pfs-root DIR --cache-dir DIR [options]\n"
      "  --pfs-root DIR      dataset root on the parallel file system\n"
      "  --cache-dir DIR     node-local cache directory (NVMe)\n"
      "  --instances N       HVAC server instances on this node "
      "(default 1)\n"
      "  --bind HOST[:PORT]  bind address (default 127.0.0.1); with PORT,\n"
      "                      instance i binds PORT+i (default: ephemeral)\n"
      "  --capacity BYTES    per-instance cache capacity (default "
      "unlimited)\n"
      "  --eviction POLICY   random|fifo|lru (default random)\n"
      "  --movers N          data-mover threads per instance (default 4)\n"
      "  --port-file PATH    also write the endpoint CSV here\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  hvac::server::NodeRuntimeOptions options;
  std::string port_file;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--pfs-root") {
      if (const char* v = next()) options.pfs_root = v;
    } else if (arg == "--cache-dir") {
      if (const char* v = next()) options.cache_root = v;
    } else if (arg == "--instances") {
      if (const char* v = next()) options.instances = std::atoi(v);
    } else if (arg == "--bind") {
      if (const char* v = next()) options.bind_host = v;
    } else if (arg == "--capacity") {
      if (const char* v = next()) {
        options.cache_capacity_bytes_per_instance = std::strtoull(
            v, nullptr, 10);
      }
    } else if (arg == "--eviction") {
      if (const char* v = next()) options.eviction_policy = v;
    } else if (arg == "--movers") {
      if (const char* v = next()) options.data_mover_threads = std::atoi(v);
    } else if (arg == "--port-file") {
      if (const char* v = next()) port_file = v;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (options.pfs_root.empty() || options.cache_root.empty()) {
    usage(argv[0]);
    return 2;
  }

  hvac::server::NodeRuntime node(options);
  if (hvac::Status s = node.start(); !s.ok()) {
    std::fprintf(stderr, "hvacd: start failed: %s\n",
                 s.error().to_string().c_str());
    return 1;
  }
  const std::string csv = node.endpoints_csv();
  std::printf("%s\n", csv.c_str());
  std::fflush(stdout);
  if (!port_file.empty()) {
    (void)hvac::storage::write_file(port_file, csv.data(), csv.size());
  }

  // OpenMetrics exporter: off unless HVAC_PROM_PORT is set (0 binds an
  // ephemeral port; HVAC_PROM_PORT_FILE publishes the bound port for
  // scripts that let the kernel pick).
  std::unique_ptr<hvac::server::PromExporter> prom;
  if (const auto prom_env = hvac::env_string("HVAC_PROM_PORT");
      prom_env.has_value() && !prom_env->empty()) {
    const int port = std::atoi(prom_env->c_str());
    if (port >= 0 && port <= 65535) {
      prom = std::make_unique<hvac::server::PromExporter>(
          static_cast<uint16_t>(port),
          [&node] { return node.aggregated_frame(); });
      if (hvac::Status s = prom->start(); !s.ok()) {
        std::fprintf(stderr, "hvacd: prom exporter failed: %s\n",
                     s.error().to_string().c_str());
        prom.reset();
      } else {
        std::fprintf(stderr, "hvacd: prom exporter on :%u/metrics\n",
                     static_cast<unsigned>(prom->port()));
        const std::string pp = hvac::env_string_or("HVAC_PROM_PORT_FILE", "");
        if (!pp.empty()) {
          const std::string v = std::to_string(prom->port());
          (void)hvac::storage::write_file(pp, v.data(), v.size());
        }
      }
    }
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (g_stop == 0) {
    // Signals interrupt the pause; poll cheaply otherwise.
    struct timespec ts {0, 200'000'000};
    ::nanosleep(&ts, nullptr);
  }
  // Graceful drain: stop accepting, let in-flight responses finish,
  // then flush a final metrics frame so the last scrape is not lost.
  std::fprintf(stderr, "hvacd: draining\n");
  if (prom) prom->stop();  // before node.stop(): the source borrows `node`
  node.drain();
  std::fprintf(stderr, "hvacd: final metrics %s\n",
               node.aggregated_frame().to_json().c_str());
  std::fprintf(stderr, "hvacd: shutting down, purging cache\n");
  node.stop();
  return 0;
}
