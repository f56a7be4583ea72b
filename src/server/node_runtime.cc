#include "server/node_runtime.h"

#include "common/env.h"

namespace hvac::server {

NodeRuntime::NodeRuntime(NodeRuntimeOptions options)
    : options_(std::move(options)) {
  pfs_ = std::make_unique<storage::PfsBackend>(options_.pfs_root,
                                               options_.pfs_options);
  std::string host = options_.bind_host;
  uint32_t port = 0;
  if (const auto hp = rpc::Endpoint{host}.host_port(); hp.ok()) {
    host = hp->first;
    port = hp->second;
  }
  for (uint32_t i = 0; i < std::max<uint32_t>(options_.instances, 1); ++i) {
    HvacServerOptions so;
    so.bind_address = host + ":" + std::to_string(port == 0 ? 0 : port + i);
    so.cache_dir =
        path_join(options_.cache_root, "instance_" + std::to_string(i));
    so.cache_capacity_bytes = options_.cache_capacity_bytes_per_instance;
    so.eviction_policy = options_.eviction_policy;
    so.data_mover_threads = options_.data_mover_threads;
    so.rpc_handler_threads = options_.rpc_handler_threads;
    so.rpc_reactors = options_.rpc_reactors;
    so.seed = 0x48564143 + i;
    servers_.push_back(std::make_unique<HvacServer>(pfs_.get(), so));
  }
}

NodeRuntime::~NodeRuntime() { stop(); }

Status NodeRuntime::start() {
  for (auto& server : servers_) {
    HVAC_RETURN_IF_ERROR(server->start());
  }
  return Status::Ok();
}

void NodeRuntime::stop() {
  for (auto& server : servers_) server->stop();
}

void NodeRuntime::drain(int timeout_ms) {
  for (auto& server : servers_) server->drain(timeout_ms);
}

std::vector<std::string> NodeRuntime::endpoints() const {
  std::vector<std::string> out;
  out.reserve(servers_.size());
  for (const auto& server : servers_) out.push_back(server->address());
  return out;
}

std::string NodeRuntime::endpoints_csv() const {
  std::string csv;
  for (const auto& endpoint : endpoints()) {
    if (!csv.empty()) csv += ",";
    csv += endpoint;
  }
  return csv;
}

core::MetricsFrame NodeRuntime::aggregated_frame() const {
  // The instances share this process, so its process-scope fields are
  // taken once instead of summed.
  core::MetricsFrame total = servers_[0]->metrics_frame();
  for (size_t i = 1; i < servers_.size(); ++i) {
    total.merge(servers_[i]->metrics_frame(),
                core::MetricsFrame::Peers::kSameProcess);
  }
  return total;
}

core::MetricsSnapshot NodeRuntime::aggregated_metrics() const {
  return aggregated_frame().cache;
}

}  // namespace hvac::server
