// The Argo-style two-level manager: a TreeController with max_levels = 2,
// ProportionalShareRoot over the enclaves (its shards) and a stateless
// MIMD manager inside each enclave.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "ctrl/tree.hpp"
#include "managers/slurm_stateless.hpp"
#include "util/rng.hpp"

namespace dps {
namespace {

ManagerContext make_ctx(int units = 8, Watts budget_per_unit = 110.0) {
  ManagerContext ctx;
  ctx.num_units = units;
  ctx.total_budget = budget_per_unit * units;
  ctx.tdp = 165.0;
  ctx.min_cap = 40.0;
  return ctx;
}

TreeController two_level(int per_enclave) {
  CtrlConfig config;
  config.shard_size = per_enclave;
  config.max_levels = 2;
  return TreeController(
      config,
      [] { return std::make_unique<SlurmStatelessManager>(MimdConfig{}); },
      [] { return std::make_unique<ProportionalShareRoot>(); });
}

Watts sum_of(const std::vector<Watts>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

TEST(Hierarchical, RejectsBadConfigAndLayout) {
  EXPECT_THROW(two_level(0), std::invalid_argument);  // empty enclaves

  TreeController manager = two_level(4);
  manager.reset(make_ctx(8));
  std::vector<Watts> power(7, 100.0), caps(8, 110.0);
  EXPECT_THROW(manager.decide(power, caps), std::invalid_argument);
}

TEST(Hierarchical, StartsWithEqualShares) {
  TreeController manager = two_level(4);
  manager.reset(make_ctx(8));
  ASSERT_EQ(manager.shard_budgets().size(), 2u);
  EXPECT_DOUBLE_EQ(manager.shard_budgets()[0], 440.0);
  EXPECT_DOUBLE_EQ(manager.shard_budgets()[1], 440.0);
}

TEST(Hierarchical, SharesShiftTowardTheHotEnclave) {
  TreeController manager = two_level(4);
  const auto ctx = make_ctx(8);
  manager.reset(ctx);
  std::vector<Watts> caps(8, ctx.constant_cap());
  for (int step = 0; step < 40; ++step) {
    std::vector<Watts> power(8);
    for (int u = 0; u < 4; ++u) power[u] = std::min(caps[u], 160.0);
    for (int u = 4; u < 8; ++u) power[u] = 30.0;
    manager.decide(power, caps);
  }
  EXPECT_GT(manager.shard_budgets()[0], 500.0);
  EXPECT_LT(manager.shard_budgets()[1], 380.0);
  // Shares always sum to the budget.
  EXPECT_NEAR(sum_of(manager.shard_budgets()), ctx.total_budget, 1e-6);
}

TEST(Hierarchical, MinShareFloorHolds) {
  TreeController manager = two_level(4);
  const auto ctx = make_ctx(8);
  manager.reset(ctx);
  std::vector<Watts> caps(8, ctx.constant_cap());
  for (int step = 0; step < 100; ++step) {
    std::vector<Watts> power(8);
    for (int u = 0; u < 4; ++u) power[u] = std::min(caps[u], 165.0);
    for (int u = 4; u < 8; ++u) power[u] = 22.0;  // enclave 1 fully idle
    manager.decide(power, caps);
  }
  // Half the equal split.
  EXPECT_GE(manager.shard_budgets()[1], 0.5 * 440.0 - 1e-6);
}

TEST(Hierarchical, BudgetInvariantUnderRandomTraffic) {
  TreeController manager = two_level(4);
  const auto ctx = make_ctx(12);
  manager.reset(ctx);
  Rng rng(17);
  std::vector<Watts> caps(12, ctx.constant_cap());
  for (int step = 0; step < 400; ++step) {
    std::vector<Watts> power(12);
    for (std::size_t u = 0; u < 12; ++u) {
      power[u] = std::min(caps[u], rng.uniform(20.0, 165.0));
    }
    manager.decide(power, caps);
    ASSERT_LE(sum_of(caps), ctx.total_budget + 1e-6);
    for (const Watts c : caps) {
      ASSERT_GE(c, ctx.min_cap - 1e-9);
      ASSERT_LE(c, ctx.tdp + 1e-9);
    }
  }
}

TEST(Hierarchical, UpdateBudgetScalesShares) {
  TreeController manager = two_level(4);
  const auto ctx = make_ctx(8);
  manager.reset(ctx);
  std::vector<Watts> caps(8, ctx.constant_cap());
  std::vector<Watts> power(8, 100.0);
  manager.decide(power, caps);
  manager.update_budget(ctx.total_budget * 0.75);
  // The next decide() applies the cut to the shares (the PowerManager
  // contract), and then enforces the shrunken shares on the caps.
  for (int step = 0; step < 3; ++step) {
    for (std::size_t u = 0; u < 8; ++u) power[u] = caps[u] * 0.99;
    manager.decide(power, caps);
    EXPECT_NEAR(sum_of(manager.shard_budgets()), ctx.total_budget * 0.75,
                1e-6);
  }
  EXPECT_LE(sum_of(caps), ctx.total_budget * 0.75 + 1e-6);

  // The root alone keeps that contract too: a cut scales its shares at
  // the next decide(), before they move toward the new targets.
  ProportionalShareRoot root;
  root.reset(make_ctx(2, 440.0));
  std::vector<Watts> shares = {600.0, 280.0};
  root.update_budget(660.0);
  root.decide(std::vector<Watts>{400.0, 100.0}, shares);
  EXPECT_NEAR(sum_of(shares), 660.0, 1e-9);
}

TEST(Hierarchical, SingleEnclaveDegeneratesToLocalMimd) {
  TreeController manager = two_level(8);
  const auto ctx = make_ctx(8);
  manager.reset(ctx);
  ASSERT_EQ(manager.shard_budgets().size(), 1u);
  std::vector<Watts> caps(8, ctx.constant_cap());
  const std::vector<Watts> power = {30,  30,  30,  30,
                                    109, 109, 109, 109};
  for (int step = 0; step < 10; ++step) manager.decide(power, caps);
  // The local MIMD shifted budget from the idle to the hungry units.
  EXPECT_LT(caps[0], 110.0);
  EXPECT_GT(caps[4], 110.0);
}

}  // namespace
}  // namespace dps
