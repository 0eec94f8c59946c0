#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "experiments/pair_runner.hpp"
#include "managers/constant.hpp"
#include "managers/feedback.hpp"
#include "managers/mimd.hpp"
#include "managers/oracle.hpp"
#include "managers/slurm_stateless.hpp"

namespace dps {
namespace {

ManagerContext make_ctx(int units = 4, Watts budget_per_unit = 110.0) {
  ManagerContext ctx;
  ctx.num_units = units;
  ctx.total_budget = budget_per_unit * units;
  ctx.tdp = 165.0;
  ctx.min_cap = 40.0;
  ctx.dt = 1.0;
  return ctx;
}

Watts sum_of(const std::vector<Watts>& caps) {
  return std::accumulate(caps.begin(), caps.end(), 0.0);
}

// --- Constant manager ---

TEST(Constant, AssignsEqualShareAlways) {
  ConstantManager manager;
  const auto ctx = make_ctx(4);
  manager.reset(ctx);
  std::vector<Watts> caps(4, 0.0);
  const std::vector<Watts> power = {10.0, 160.0, 80.0, 40.0};
  manager.decide(power, caps);
  for (const Watts c : caps) EXPECT_DOUBLE_EQ(c, 110.0);
}

TEST(Constant, ContextConstantCap) {
  EXPECT_DOUBLE_EQ(make_ctx(4).constant_cap(), 110.0);
  EXPECT_DOUBLE_EQ(ManagerContext{}.constant_cap(), 0.0);
}

// --- MIMD / SLURM stateless ---

TEST(Mimd, DecreasesIdleUnitsCap) {
  MimdController mimd;
  const auto ctx = make_ctx(2);
  mimd.reset(ctx);
  std::vector<Watts> caps = {110.0, 110.0};
  const std::vector<Watts> power = {30.0, 100.0};
  mimd.decide(power, caps);
  EXPECT_LT(caps[0], 110.0);          // idle unit lowered
  EXPECT_DOUBLE_EQ(caps[1], 110.0);   // in-band unit untouched
  EXPECT_TRUE(mimd.set_flags()[0]);
  EXPECT_FALSE(mimd.set_flags()[1]);
}

TEST(Mimd, DecreaseFloorsAtMeasuredPowerAndMinCap) {
  MimdConfig config;
  config.dec_percentile = 0.5;  // aggressive decrease
  MimdController mimd(config);
  const auto ctx = make_ctx(2);
  mimd.reset(ctx);
  std::vector<Watts> caps = {110.0, 110.0};
  std::vector<Watts> power = {80.0, 10.0};
  mimd.decide(power, caps);
  // Unit 0 drops to its measured power (80), then the same step's increase
  // loop re-raises it by 10 % from the freed budget — the MIMD equilibrium
  // keeps caps a multiplicative step above power.
  EXPECT_DOUBLE_EQ(caps[0], 88.0);
  EXPECT_DOUBLE_EQ(caps[1], 55.0);  // 0.5 * 110, above min_cap
  power = {80.0, 10.0};
  mimd.decide(power, caps);
  EXPECT_DOUBLE_EQ(caps[1], 40.0);  // clamped at hardware minimum
}

TEST(Mimd, IncreaseSpendsFreedBudget) {
  MimdController mimd;
  const auto ctx = make_ctx(2);
  mimd.reset(ctx);
  std::vector<Watts> caps = {110.0, 110.0};
  // Unit 0 idle frees budget; unit 1 pinned at its cap wants more.
  const std::vector<Watts> power = {30.0, 109.0};
  mimd.decide(power, caps);
  EXPECT_LT(caps[0], 110.0);
  EXPECT_GT(caps[1], 110.0);
  EXPECT_LE(sum_of(caps), ctx.total_budget + 1e-9);
}

TEST(Mimd, NoIncreaseWithoutBudget) {
  MimdController mimd;
  const auto ctx = make_ctx(2);
  mimd.reset(ctx);
  std::vector<Watts> caps = {110.0, 110.0};
  const std::vector<Watts> power = {109.0, 109.0};  // both want more
  mimd.decide(power, caps);
  EXPECT_DOUBLE_EQ(caps[0], 110.0);
  EXPECT_DOUBLE_EQ(caps[1], 110.0);
}

TEST(Mimd, IncreaseCappedAtTdp) {
  MimdController mimd;
  const auto ctx = make_ctx(2);
  mimd.reset(ctx);
  std::vector<Watts> caps = {160.0, 40.0};
  const std::vector<Watts> power = {159.0, 20.0};
  mimd.decide(power, caps);
  EXPECT_LE(caps[0], 165.0);
}

TEST(Mimd, BudgetInvariantUnderRandomScenarios) {
  MimdController mimd;
  const auto ctx = make_ctx(8);
  mimd.reset(ctx);
  Rng rng(99);
  std::vector<Watts> caps(8, ctx.constant_cap());
  for (int step = 0; step < 500; ++step) {
    std::vector<Watts> power(8);
    for (auto& p : power) p = rng.uniform(15.0, 165.0);
    mimd.decide(power, caps);
    EXPECT_LE(sum_of(caps), ctx.total_budget + 1e-6);
    for (const Watts c : caps) {
      EXPECT_GE(c, ctx.min_cap - 1e-9);
      EXPECT_LE(c, ctx.tdp + 1e-9);
    }
  }
}

TEST(Mimd, RandomOrderEventuallyFavoursEveryUnit) {
  // With two equally hungry units and budget for one increase, the random
  // order must let each win sometimes.
  MimdController mimd;
  const auto ctx = make_ctx(3);
  int wins0 = 0, wins1 = 0;
  for (int trial = 0; trial < 60; ++trial) {
    mimd.reset(ctx);
    // 10 W of spare budget; both hot units want a full 14 W increase, so
    // whoever the shuffle visits first takes the whole spare.
    std::vector<Watts> caps = {140.0, 140.0, 40.0};
    const std::vector<Watts> power = {139.0, 139.0, 39.0};
    mimd.decide(power, caps);
    if (caps[0] > caps[1]) ++wins0;
    if (caps[1] > caps[0]) ++wins1;
  }
  EXPECT_GT(wins0, 5);
  EXPECT_GT(wins1, 5);
}

TEST(Mimd, RejectsDegenerateConfig) {
  MimdConfig bad;
  bad.inc_threshold = 0.5;
  bad.dec_threshold = 0.9;
  EXPECT_THROW(MimdController{bad}, std::invalid_argument);
  bad = MimdConfig{};
  bad.inc_percentile = 0.9;
  EXPECT_THROW(MimdController{bad}, std::invalid_argument);
  bad = MimdConfig{};
  bad.dec_percentile = 1.1;
  EXPECT_THROW(MimdController{bad}, std::invalid_argument);
}

MimdConfig plugin_params_fast() {
  // The plugin's thresholds and rates, at a 1-step cadence so unit tests
  // need not replay 30 calls per rebalance.
  MimdConfig config = slurm_plugin_defaults();
  config.decision_interval_steps = 1;
  return config;
}

TEST(SlurmManager, WrapsTheMimdController) {
  SlurmStatelessManager manager(plugin_params_fast());
  EXPECT_EQ(manager.name(), "slurm");
  const auto ctx = make_ctx(2);
  manager.reset(ctx);
  std::vector<Watts> caps = {110.0, 110.0};
  const std::vector<Watts> power = {30.0, 109.0};
  manager.decide(power, caps);
  EXPECT_LT(caps[0], 110.0);
  EXPECT_GT(caps[1], 110.0);
}

TEST(SlurmManager, BalanceIntervalHoldsCapsBetweenRebalances) {
  MimdConfig coarse = slurm_plugin_defaults();
  coarse.decision_interval_steps = 30;
  SlurmStatelessManager manager(coarse);
  const auto ctx = make_ctx(2);
  manager.reset(ctx);
  std::vector<Watts> caps = {110.0, 110.0};
  const std::vector<Watts> power = {30.0, 109.0};
  for (int step = 0; step < 29; ++step) {
    manager.decide(power, caps);
    EXPECT_DOUBLE_EQ(caps[0], 110.0);
    EXPECT_DOUBLE_EQ(caps[1], 110.0);
  }
  manager.decide(power, caps);  // 30th call: rebalance happens
  EXPECT_LT(caps[0], 110.0);
  EXPECT_GT(caps[1], 110.0);
}

TEST(SlurmManager, StarvesLateRisersWhenBudgetExhausted) {
  // The Figure 1 failure mode: unit 0 grabs all spare budget first; when
  // unit 1's demand rises later there is nothing left and, stateless, the
  // manager never rebalances.
  SlurmStatelessManager manager(plugin_params_fast());
  const auto ctx = make_ctx(2);
  manager.reset(ctx);
  std::vector<Watts> caps = {110.0, 110.0};
  // Phase 1: unit 0 hot, unit 1 idle -> unit 0 accumulates cap.
  for (int step = 0; step < 30; ++step) {
    const std::vector<Watts> power = {caps[0] * 0.99, 30.0};
    manager.decide(power, caps);
  }
  EXPECT_GT(caps[0], 150.0);
  EXPECT_LT(caps[1], 60.0);
  // Phase 2: unit 1's demand rises but it is capped, so its measured power
  // pins at its (low) cap. It can only claw back the crumbs the incumbent
  // left and stays far below its fair 110 W share.
  for (int step = 0; step < 30; ++step) {
    const std::vector<Watts> power = {caps[0] * 0.99, caps[1] * 0.99};
    manager.decide(power, caps);
  }
  EXPECT_LT(caps[1], 80.0);   // still starved
  EXPECT_GT(caps[0], 150.0);  // incumbent keeps the budget
}

// --- Feedback (PShifter-style extension baseline) ---

TEST(Feedback, ShiftsSlackToConstrainedUnits) {
  FeedbackManager manager;
  const auto ctx = make_ctx(2);
  manager.reset(ctx);
  std::vector<Watts> caps = {110.0, 110.0};
  // Unit 0 comfortable (60 W of slack), unit 1 pinned.
  for (int step = 0; step < 20; ++step) {
    const std::vector<Watts> power = {50.0, caps[1] * 0.999};
    manager.decide(power, caps);
  }
  EXPECT_LT(caps[0], 80.0);
  EXPECT_GT(caps[1], 140.0);
  EXPECT_LE(sum_of(caps), ctx.total_budget + 1e-6);
}

TEST(Feedback, LeavesBalancedSystemsAlone) {
  FeedbackManager manager;
  const auto ctx = make_ctx(3);
  manager.reset(ctx);
  std::vector<Watts> caps = {110.0, 110.0, 110.0};
  const std::vector<Watts> before = caps;
  // Everyone pinned: no slack to withdraw, nothing changes.
  const std::vector<Watts> power = {109.5, 109.5, 109.5};
  manager.decide(power, caps);
  EXPECT_EQ(caps, before);
}

TEST(Feedback, ConvergenceIsProportionalNotOscillatory) {
  FeedbackManager manager;
  const auto ctx = make_ctx(2);
  manager.reset(ctx);
  std::vector<Watts> caps = {110.0, 110.0};
  Watts previous_move = 1e9;
  for (int step = 0; step < 12; ++step) {
    const Watts before = caps[0];
    const std::vector<Watts> power = {50.0, caps[1] * 0.999};
    manager.decide(power, caps);
    const Watts move = std::abs(caps[0] - before);
    EXPECT_LE(move, previous_move + 1e-6);  // monotonically damping steps
    previous_move = move;
  }
}

TEST(Feedback, BudgetInvariantUnderRandomFeeds) {
  FeedbackManager manager;
  const auto ctx = make_ctx(8);
  manager.reset(ctx);
  Rng rng(31);
  std::vector<Watts> caps(8, ctx.constant_cap());
  for (int step = 0; step < 500; ++step) {
    std::vector<Watts> power(8);
    for (std::size_t u = 0; u < 8; ++u) {
      power[u] = std::min(caps[u], rng.uniform(15.0, 165.0));
    }
    manager.decide(power, caps);
    EXPECT_LE(sum_of(caps), ctx.total_budget + 1e-6);
    for (const Watts c : caps) {
      EXPECT_GE(c, ctx.min_cap - 1e-9);
      EXPECT_LE(c, ctx.tdp + 1e-9);
    }
  }
}

TEST(Feedback, RejectsBadConfig) {
  FeedbackConfig bad;
  bad.gain = 0.0;
  EXPECT_THROW(FeedbackManager{bad}, std::invalid_argument);
  bad = FeedbackConfig{};
  bad.pinch_fraction = 1.5;
  EXPECT_THROW(FeedbackManager{bad}, std::invalid_argument);
}

// --- Oracle ---

TEST(Oracle, MeetsDemandsWithHeadroomWhenBudgetSuffices) {
  std::vector<Watts> demands = {60.0, 80.0};
  OracleManager oracle(
      [&](std::span<Watts> out) {
        std::copy(demands.begin(), demands.end(), out.begin());
      },
      5.0);
  const auto ctx = make_ctx(2);
  oracle.reset(ctx);
  std::vector<Watts> caps(2, 110.0);
  { const std::vector<Watts> zero(2, 0.0); oracle.decide(zero, caps); }
  EXPECT_DOUBLE_EQ(caps[0], 65.0);
  EXPECT_DOUBLE_EQ(caps[1], 85.0);
}

TEST(Oracle, ProportionalScalingWhenOverBudget) {
  std::vector<Watts> demands = {160.0, 160.0, 160.0, 160.0};
  OracleManager oracle(
      [&](std::span<Watts> out) {
        std::copy(demands.begin(), demands.end(), out.begin());
      },
      0.0);
  const auto ctx = make_ctx(4);  // budget 440 < 4*160
  oracle.reset(ctx);
  std::vector<Watts> caps(4, 110.0);
  { const std::vector<Watts> zero(4, 0.0); oracle.decide(zero, caps); }
  for (const Watts c : caps) EXPECT_NEAR(c, 110.0, 1e-9);
}

TEST(Oracle, UnequalDemandsGetProportionalShares) {
  std::vector<Watts> demands = {150.0, 75.0};
  OracleManager oracle(
      [&](std::span<Watts> out) {
        std::copy(demands.begin(), demands.end(), out.begin());
      },
      0.0);
  const auto ctx = make_ctx(2, 75.0);  // budget 150 < 225 total demand
  oracle.reset(ctx);
  std::vector<Watts> caps(2, 75.0);
  { const std::vector<Watts> zero(2, 0.0); oracle.decide(zero, caps); }
  EXPECT_NEAR(caps[0], 100.0, 1e-9);
  EXPECT_NEAR(caps[1], 50.0, 1e-9);
  // Equal satisfaction: both get 2/3 of demand.
  EXPECT_NEAR(caps[0] / demands[0], caps[1] / demands[1], 1e-9);
}

TEST(Oracle, MinCapPinningRedistributes) {
  std::vector<Watts> demands = {160.0, 10.0};
  OracleManager oracle(
      [&](std::span<Watts> out) {
        std::copy(demands.begin(), demands.end(), out.begin());
      },
      0.0);
  ManagerContext ctx = make_ctx(2, 60.0);  // budget 120
  oracle.reset(ctx);
  std::vector<Watts> caps(2, 60.0);
  { const std::vector<Watts> zero(2, 0.0); oracle.decide(zero, caps); }
  EXPECT_DOUBLE_EQ(caps[1], 40.0);  // pinned at hardware min
  EXPECT_NEAR(caps[0], 80.0, 1e-9);  // the rest
}

TEST(Oracle, BudgetInvariantUnderRandomDemands) {
  Rng rng(4);
  std::vector<Watts> demands(6);
  OracleManager oracle(
      [&](std::span<Watts> out) {
        std::copy(demands.begin(), demands.end(), out.begin());
      },
      5.0);
  const auto ctx = make_ctx(6);
  oracle.reset(ctx);
  std::vector<Watts> caps(6, 110.0);
  for (int step = 0; step < 300; ++step) {
    for (auto& d : demands) d = rng.uniform(20.0, 165.0);
    { const std::vector<Watts> zero(6, 0.0); oracle.decide(zero, caps); }
    EXPECT_LE(sum_of(caps), ctx.total_budget + 1e-6);
    for (const Watts c : caps) {
      EXPECT_GE(c, ctx.min_cap - 1e-9);
      EXPECT_LE(c, ctx.tdp + 1e-9);
    }
  }
}

TEST(Oracle, RequiresProbe) {
  EXPECT_THROW(OracleManager(nullptr), std::invalid_argument);
}

// --- Every manager kind ---

// A manager that keeps per-unit state sizes it in reset(); spans of any
// other length must be refused before anything is read or written, not
// run past the state (a 4-unit reset decided over 8-unit spans wrote past
// the stateless module's arrays). The feedback shifter keeps none, but it
// reads one reading per cap, so it refuses them too.
TEST(ManagerKinds, StatefulKindsRefuseSpansOfAnotherUnitCount) {
  for (const ManagerKind kind : {ManagerKind::kSlurm, ManagerKind::kOracle,
                                 ManagerKind::kDps, ManagerKind::kFeedback,
                                 ManagerKind::kP2p}) {
    SCOPED_TRACE(to_string(kind));
    const auto manager = make_manager(
        kind, DpsConfig{}, slurm_plugin_defaults(),
        [](std::span<Watts> demand) {
          std::fill(demand.begin(), demand.end(), 120.0);
        });
    const auto ctx = make_ctx(4);
    manager->reset(ctx);
    for (const auto& [units_power, units_caps] :
         {std::pair{8, 8}, std::pair{4, 8}, std::pair{8, 4}, std::pair{3, 3},
          std::pair{0, 0}}) {
      const std::vector<Watts> power(static_cast<std::size_t>(units_power),
                                     100.0);
      std::vector<Watts> caps(static_cast<std::size_t>(units_caps), 110.0);
      EXPECT_THROW(manager->decide(power, caps), std::invalid_argument)
          << units_power << " readings, " << units_caps << " caps";
    }
    // The refusals left the manager usable.
    const std::vector<Watts> power(4, 100.0);
    std::vector<Watts> caps(4, ctx.constant_cap());
    manager->decide(power, caps);
    EXPECT_LE(sum_of(caps), ctx.total_budget + 1e-6);
  }
}

}  // namespace
}  // namespace dps
