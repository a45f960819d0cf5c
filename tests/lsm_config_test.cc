// Configs whose cascade never settles (delta 0, rho <= 1, rho NaN) are
// refused with InvalidArgument by every path that can return a status,
// before any merge could hang.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "lsm/lsm_tree.h"
#include "shard/shard_set.h"
#include "storage/fs.h"
#include "storage/journal.h"

namespace rtsi {
namespace {

std::vector<std::pair<std::string, lsm::LsmTree::Config>> BadConfigs() {
  std::vector<std::pair<std::string, lsm::LsmTree::Config>> bad;
  lsm::LsmTree::Config config;
  config.delta = 0;
  bad.emplace_back("delta 0", config);
  config = lsm::LsmTree::Config{};
  config.rho = 1.0;
  bad.emplace_back("rho 1", config);
  config.rho = 0.5;
  bad.emplace_back("rho 0.5", config);
  config.rho = std::numeric_limits<double>::quiet_NaN();
  bad.emplace_back("rho NaN", config);
  return bad;
}

TEST(LsmConfigTest, CheckAcceptsSettlingConfigs) {
  EXPECT_TRUE(lsm::LsmTree::Config{}.Check().ok());
  lsm::LsmTree::Config tight;
  tight.delta = 1;
  tight.rho = 1.0001;
  EXPECT_TRUE(tight.Check().ok());
  for (const auto& [label, config] : BadConfigs()) {
    EXPECT_EQ(config.Check().code(), StatusCode::kInvalidArgument) << label;
  }
}

TEST(LsmConfigTest, DurableIndexOpenRefusesBadConfigs) {
  const std::string snap = "/tmp/rtsi_lsm_config_test.snap";
  const std::string journal = "/tmp/rtsi_lsm_config_test.journal";
  for (const auto& [label, lsm_config] : BadConfigs()) {
    core::RtsiConfig config;
    config.lsm = lsm_config;
    const auto opened = storage::DurableIndex::Open(config, snap, journal);
    ASSERT_FALSE(opened.ok()) << label;
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument) << label;
    EXPECT_FALSE(storage::fs::Exists(journal)) << label;
  }
}

TEST(LsmConfigTest, IndexShardSetOpenRefusesBadConfigs) {
  const std::string dir = "/tmp/rtsi_lsm_config_test_shards";
  for (const auto& [label, lsm_config] : BadConfigs()) {
    shard::ShardSetConfig config;
    config.index.lsm = lsm_config;
    config.num_shards = 2;
    config.durable_dir = dir;
    const auto opened = shard::IndexShardSet::Open(config);
    ASSERT_FALSE(opened.ok()) << label;
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument) << label;
    EXPECT_FALSE(storage::fs::Exists(dir)) << label;
  }
}

}  // namespace
}  // namespace rtsi
