// Tests of the capping-granularity tree (bench/ext_granularity): a
// two-level TreeController whose shards are node-level units. The root
// tier sees each node's summed socket power, and a ProportionalSplitLeaf
// per node splits the node's cap across its sockets.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "ctrl/tree.hpp"

namespace dps {
namespace {

/// What the root tier of the last tree saw.
struct RootLog {
  ManagerContext ctx;
  std::vector<Watts> shard_power;
};

/// Root tier that records its context and the shard powers it is shown,
/// and assigns fixed shard budgets.
class RecordingRoot final : public PowerManager {
 public:
  RecordingRoot(RootLog& log, std::vector<Watts> budgets)
      : log_(log), budgets_(std::move(budgets)) {}
  std::string_view name() const override { return "recording_root"; }
  void reset(const ManagerContext& ctx) override { log_.ctx = ctx; }
  void decide(std::span<const Watts> power, std::span<Watts> caps) override {
    log_.shard_power.assign(power.begin(), power.end());
    std::copy(budgets_.begin(), budgets_.end(), caps.begin());
  }
  void update_budget(Watts) override {}

 private:
  RootLog& log_;
  std::vector<Watts> budgets_;
};

/// The granularity tree over `num_sockets` sockets of 165 W, nodes of
/// `sockets_per_unit` sockets, and a root that assigns `budgets` (their
/// sum is the cluster budget).
std::unique_ptr<TreeController> make_tree(int num_sockets,
                                          int sockets_per_unit,
                                          std::vector<Watts> budgets,
                                          RootLog& log) {
  CtrlConfig config;
  config.shard_size = sockets_per_unit;
  config.max_levels = 2;
  ManagerContext ctx;
  ctx.num_units = num_sockets;
  ctx.total_budget = std::accumulate(budgets.begin(), budgets.end(), 0.0);
  ctx.tdp = 165.0;
  ctx.min_cap = 40.0;
  auto tree = std::make_unique<TreeController>(
      config, [] { return std::make_unique<ProportionalSplitLeaf>(); },
      [&log, budgets] {
        return std::make_unique<RecordingRoot>(log, budgets);
      });
  tree->reset(ctx);
  return tree;
}

/// Socket caps after one decision of the granularity tree.
std::vector<Watts> split(int sockets_per_unit, std::vector<Watts> budgets,
                         const std::vector<Watts>& power,
                         RootLog& log) {
  const auto tree = make_tree(static_cast<int>(power.size()),
                              sockets_per_unit, std::move(budgets), log);
  std::vector<Watts> caps(power.size(), 0.0);
  tree->decide(power, caps);
  return caps;
}

TEST(Aggregator, UnitCountArithmetic) {
  RootLog log;
  const auto tree = make_tree(20, 4, std::vector<Watts>(5, 440.0), log);
  EXPECT_EQ(tree->num_shards(), 5);
  EXPECT_EQ(tree->levels(), 2);
  for (int s = 0; s < 5; ++s) EXPECT_EQ(tree->shard_size(s), 4);
  // The root manages 5 node-level units of 4 sockets' TDP each.
  EXPECT_EQ(log.ctx.num_units, 5);
  EXPECT_DOUBLE_EQ(log.ctx.tdp, 4 * 165.0);
}

TEST(Aggregator, AggregateSumsGroups) {
  RootLog log;
  split(2, {220.0, 220.0}, {10.0, 20.0, 30.0, 40.0}, log);
  ASSERT_EQ(log.shard_power.size(), 2u);
  EXPECT_DOUBLE_EQ(log.shard_power[0], 30.0);
  EXPECT_DOUBLE_EQ(log.shard_power[1], 70.0);
}

TEST(Aggregator, SplitConservesUnitCap) {
  RootLog log;
  const auto caps =
      split(2, {220.0, 180.0}, {100.0, 50.0, 90.0, 90.0}, log);
  EXPECT_NEAR(caps[0] + caps[1], 220.0, 1e-9);
  EXPECT_NEAR(caps[2] + caps[3], 180.0, 1e-9);
}

TEST(Aggregator, SplitFavoursHotterSocket) {
  RootLog log;
  const auto caps =
      split(2, {220.0, 220.0}, {150.0, 50.0, 150.0, 50.0}, log);
  EXPECT_GT(caps[0], caps[1]);
  EXPECT_GT(caps[0], 110.0);
  // 40 % of the 110 W equal share each; the other 132 W split 3:1.
  EXPECT_DOUBLE_EQ(caps[0], 143.0);
  EXPECT_DOUBLE_EQ(caps[1], 77.0);
}

TEST(Aggregator, FloorShareProtectsIdleSocket) {
  RootLog log;
  const auto caps = split(2, {220.0, 220.0}, {160.0, 0.0, 160.0, 0.0}, log);
  // Idle socket keeps at least 40 % of the equal share (0.4 * 110 = 44).
  EXPECT_GE(caps[1], 44.0 - 1e-9);
}

TEST(Aggregator, AllIdleSplitsEqually) {
  RootLog log;
  const auto caps = split(2, {200.0, 200.0}, {0.0, 0.0, 0.0, 0.0}, log);
  EXPECT_NEAR(caps[0], 100.0, 1e-9);
  EXPECT_NEAR(caps[1], 100.0, 1e-9);
}

TEST(Aggregator, SizeMismatchesThrow) {
  RootLog log;
  const auto tree = make_tree(4, 2, {220.0, 220.0}, log);
  std::vector<Watts> wrong(3), right(4);
  EXPECT_THROW(tree->decide(wrong, right), std::invalid_argument);
  EXPECT_THROW(tree->decide(right, wrong), std::invalid_argument);
}

TEST(Aggregator, IdentityGranularityIsTransparent) {
  RootLog log;
  const std::vector<Watts> power = {10.0, 20.0, 30.0};
  const std::vector<Watts> budgets = {110.0, 120.0, 130.0};
  const auto caps = split(1, budgets, power, log);
  EXPECT_EQ(log.shard_power, power);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(caps[i], budgets[i], 1e-9);
}

}  // namespace
}  // namespace dps
