// NodeRuntime — convenience harness that models one compute node
// running i HVAC server instances (the paper's HVAC(i×1) deployment:
// "multiple HVAC server instances can be executed on a single node").
// Used by the examples, the functional tests and the LD_PRELOAD demo
// to stand up an allocation in-process.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "server/hvac_server.h"
#include "storage/pfs_backend.h"

namespace hvac::server {

struct NodeRuntimeOptions {
  // PFS mount (dataset root) shared by all instances on the node.
  std::string pfs_root;
  storage::PfsOptions pfs_options;
  // Parent directory for per-instance cache stores.
  std::string cache_root;
  uint32_t instances = 1;
  uint64_t cache_capacity_bytes_per_instance = 0;
  std::string eviction_policy = "random";
  size_t data_mover_threads = core::DataMover::kDefaultMovers;
  size_t rpc_handler_threads = 2;
  // "HOST" binds ephemeral ports; "HOST:PORT" binds PORT + i for
  // instance i, so a restarted node comes back on its old endpoints.
  std::string bind_host = "127.0.0.1";
};

class NodeRuntime {
 public:
  explicit NodeRuntime(NodeRuntimeOptions options);
  ~NodeRuntime();

  Status start();
  void stop();

  // Graceful drain of every instance (the hvacd SIGTERM path): stop
  // accepting, shed new requests, let in-flight responses finish.
  void drain(int timeout_ms = 5000);

  // Endpoint list in server-index order; feed this to HvacClient (and
  // to the HVAC_SERVERS env variable for the shim).
  std::vector<std::string> endpoints() const;
  std::string endpoints_csv() const;

  storage::PfsBackend& pfs() { return *pfs_; }
  HvacServer& instance(size_t i) { return *servers_.at(i); }
  size_t instance_count() const { return servers_.size(); }

  // Aggregated metrics across instances.
  core::MetricsSnapshot aggregated_metrics() const;

  // Full metrics frame v2 aggregated across the node's instances. They
  // share one process, so process-scope fields (core/metrics_schema.h)
  // are taken once rather than multiply-counted.
  core::MetricsFrame aggregated_frame() const;

 private:
  NodeRuntimeOptions options_;
  std::unique_ptr<storage::PfsBackend> pfs_;
  std::vector<std::unique_ptr<HvacServer>> servers_;
};

}  // namespace hvac::server
