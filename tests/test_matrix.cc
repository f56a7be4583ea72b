// Configuration-matrix sweep over the functional system: every
// combination of (nodes, instances-per-node, placement policy,
// segmentation) must serve byte-correct data with full cache
// accounting. This is the "does every deployment shape actually
// work" test a release gets run through before shipping.
#include <gtest/gtest.h>

#include <filesystem>
#include <type_traits>

#include "client/hvac_client.h"
#include "server/node_runtime.h"
#include "workload/file_tree.h"

namespace hvac {
namespace {

namespace fs = std::filesystem;

// gtest names a parameter that has no printer by its bytes, and ctest
// lists those bytes in every case's name: a padding byte would make
// the names differ between builds. So every byte is a field.
struct MatrixParam {
  uint32_t nodes;
  uint32_t instances;
  uint64_t segment_bytes;  // 0 = whole-file caching
  core::PlacementPolicy policy;
  uint32_t unused = 0;
};
static_assert(std::has_unique_object_representations_v<MatrixParam>,
              "MatrixParam must have no padding");

std::string param_name(const ::testing::TestParamInfo<MatrixParam>& info) {
  const MatrixParam& p = info.param;
  std::string name = "n" + std::to_string(p.nodes) + "_i" +
                     std::to_string(p.instances) + "_" +
                     core::placement_policy_name(p.policy);
  if (p.segment_bytes > 0) name += "_seg";
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class DeployMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(DeployMatrix, EndToEndcorrectness) {
  const MatrixParam& p = GetParam();
  const std::string tag = param_name({GetParam(), 0});
  const std::string pfs_root = ::testing::TempDir() + "hvac_mx_" + tag;
  fs::remove_all(pfs_root);

  // Mixed file sizes so segmentation (8 KB segments) actually splits
  // some files and passes others through whole.
  const auto spec = workload::synthetic_small(18, 12 * 1024, 0.8);
  auto tree = workload::generate_tree(pfs_root, spec);
  ASSERT_TRUE(tree.ok());

  std::vector<std::unique_ptr<server::NodeRuntime>> nodes;
  client::HvacClientOptions copts;
  copts.dataset_dir = pfs_root;
  copts.placement = p.policy;
  copts.segment_bytes = p.segment_bytes;
  for (uint32_t n = 0; n < p.nodes; ++n) {
    server::NodeRuntimeOptions o;
    o.pfs_root = pfs_root;
    o.cache_root = ::testing::TempDir() + "hvac_mx_cache_" + tag + "_" +
                   std::to_string(n);
    fs::remove_all(o.cache_root);
    o.instances = p.instances;
    nodes.push_back(std::make_unique<server::NodeRuntime>(o));
    ASSERT_TRUE(nodes.back()->start().ok());
    for (const auto& e : nodes.back()->endpoints()) {
      copts.server_endpoints.push_back(e);
    }
  }
  client::HvacClient client(copts);

  // Two epochs: misses then hits; verify every byte both times.
  for (int epoch = 0; epoch < 2; ++epoch) {
    for (size_t i = 0; i < tree->relative_paths.size(); ++i) {
      const std::string& rel = tree->relative_paths[i];
      auto vfd = client.open(pfs_root + "/" + rel);
      ASSERT_TRUE(vfd.ok()) << rel << ": " << vfd.error().to_string();
      std::vector<uint8_t> data(tree->sizes[i]);
      const auto n = client.pread(*vfd, data.data(), data.size(), 0);
      ASSERT_TRUE(n.ok()) << n.error().to_string();
      ASSERT_EQ(*n, tree->sizes[i]) << rel;
      EXPECT_TRUE(workload::verify_contents(rel, data)) << rel;
      ASSERT_TRUE(client.close(*vfd).ok());
    }
  }

  // No fail-open should have been needed, and the caches served the
  // second epoch.
  EXPECT_EQ(client.stats().fallback_opens, 0u);
  core::MetricsSnapshot total;
  for (auto& node : nodes) {
    const auto m = node->aggregated_metrics();
    total.hits += m.hits;
    total.misses += m.misses;
  }
  EXPECT_GT(total.misses, 0u);
  // Epoch 2 was served without new PFS copies: every re-open is a
  // server-side hit.
  EXPECT_GE(total.hits, total.misses);
  for (auto& node : nodes) node->stop();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DeployMatrix,
    ::testing::Values(
        MatrixParam{1, 1, 0, core::PlacementPolicy::kHashModulo},
        MatrixParam{1, 4, 0, core::PlacementPolicy::kHashModulo},
        MatrixParam{2, 2, 0, core::PlacementPolicy::kHashModulo},
        MatrixParam{3, 1, 0, core::PlacementPolicy::kHashModulo},
        MatrixParam{2, 2, 0, core::PlacementPolicy::kRendezvous},
        MatrixParam{3, 2, 0, core::PlacementPolicy::kRendezvous},
        MatrixParam{2, 2, 0, core::PlacementPolicy::kJump},
        MatrixParam{1, 2, 8 * 1024, core::PlacementPolicy::kHashModulo},
        MatrixParam{3, 1, 8 * 1024, core::PlacementPolicy::kHashModulo},
        MatrixParam{2, 2, 8 * 1024, core::PlacementPolicy::kRendezvous},
        MatrixParam{3, 2, 8 * 1024, core::PlacementPolicy::kJump}),
    param_name);

}  // namespace
}  // namespace hvac
