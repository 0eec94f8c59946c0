/// Tests of the runtime-budget-change path (PowerManager::update_budget,
/// enforce_budget, engine budget schedules) and of cluster workload
/// rotations.

#include <gtest/gtest.h>

#include <numeric>

#include "core/dps_manager.hpp"
#include "experiments/registry.hpp"
#include "managers/constant.hpp"
#include "managers/feedback.hpp"
#include "managers/slurm_stateless.hpp"
#include "sim/engine.hpp"

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

// --- enforce_budget ---

TEST(EnforceBudget, NoOpWhenWithinBudget) {
  std::vector<Watts> caps = {100.0, 100.0};
  EXPECT_FALSE(enforce_budget(caps, 220.0, 40.0));
  EXPECT_DOUBLE_EQ(caps[0], 100.0);
}

TEST(EnforceBudget, ProportionalShed) {
  std::vector<Watts> caps = {150.0, 90.0};  // sum 240
  EXPECT_TRUE(enforce_budget(caps, 120.0, 10.0));
  EXPECT_NEAR(caps[0], 75.0, 1e-9);
  EXPECT_NEAR(caps[1], 45.0, 1e-9);
  EXPECT_NEAR(sum_of(caps), 120.0, 1e-9);
}

TEST(EnforceBudget, RespectsHardwareMinimum) {
  std::vector<Watts> caps = {150.0, 45.0};  // scaling 45 would go below 40
  EXPECT_TRUE(enforce_budget(caps, 130.0, 40.0));
  EXPECT_GE(caps[1], 40.0 - 1e-9);
  EXPECT_LE(sum_of(caps), 130.0 + 1e-9);
}

TEST(EnforceBudget, ImpossibleBudgetPinsEveryoneAtMinimum) {
  std::vector<Watts> caps = {150.0, 150.0};
  enforce_budget(caps, 10.0, 40.0);  // budget below 2 x min_cap
  EXPECT_DOUBLE_EQ(caps[0], 40.0);
  EXPECT_DOUBLE_EQ(caps[1], 40.0);
}

// --- update_budget per manager ---

template <typename Manager>
void expect_sheds_within_one_step(Manager&& manager) {
  const auto ctx = make_ctx(4);
  manager.reset(ctx);
  std::vector<Watts> caps(4, ctx.constant_cap());
  std::vector<Watts> power = {109.0, 109.0, 109.0, 109.0};
  for (int step = 0; step < 5; ++step) manager.decide(power, caps);
  ASSERT_NEAR(sum_of(caps), 440.0, 1.0);

  manager.update_budget(320.0);  // emergency: -27 %
  for (std::size_t u = 0; u < 4; ++u) power[u] = caps[u] * 0.99;
  manager.decide(power, caps);
  EXPECT_LE(sum_of(caps), 320.0 + 1e-6);
}

TEST(UpdateBudget, ConstantShedsImmediately) {
  expect_sheds_within_one_step(ConstantManager());
}

TEST(UpdateBudget, SlurmShedsImmediately) {
  expect_sheds_within_one_step(SlurmStatelessManager());
}

TEST(UpdateBudget, FeedbackShedsImmediately) {
  expect_sheds_within_one_step(FeedbackManager());
}

TEST(UpdateBudget, DpsShedsImmediately) {
  expect_sheds_within_one_step(DpsManager());
}

TEST(UpdateBudget, DpsKeepsItsStateAcrossTheChange) {
  DpsManager manager;
  const auto ctx = make_ctx(2);
  manager.reset(ctx);
  std::vector<Watts> caps(2, ctx.constant_cap());
  // Build up a high priority on unit 0.
  for (const Watts p : {50.0, 60.0, 70.0, 80.0}) {
    const std::vector<Watts> power = {p, 105.0};
    manager.decide(power, caps);
  }
  ASSERT_TRUE(manager.priorities().high_priority(0));
  manager.update_budget(180.0);
  const std::vector<Watts> power = {std::min(caps[0], 90.0), 90.0};
  manager.decide(power, caps);
  // Priority state survived; history is still warm.
  EXPECT_TRUE(manager.priorities().high_priority(0));
  EXPECT_GT(manager.history().power_history(0).size(), 3u);
}

TEST(UpdateBudget, RaisingBudgetUnlocksMoreCap) {
  SlurmStatelessManager manager;
  const auto ctx = make_ctx(2);
  manager.reset(ctx);
  std::vector<Watts> caps(2, ctx.constant_cap());
  std::vector<Watts> power = {109.0, 109.0};
  for (int step = 0; step < 3; ++step) manager.decide(power, caps);
  ASSERT_NEAR(sum_of(caps), 220.0, 1.0);
  manager.update_budget(300.0);
  for (int step = 0; step < 10; ++step) {
    power = {caps[0] * 0.99, caps[1] * 0.99};
    manager.decide(power, caps);
  }
  EXPECT_GT(sum_of(caps), 260.0);  // grew into the new headroom
  EXPECT_LE(sum_of(caps), 300.0 + 1e-6);
}

// --- engine budget schedule ---

TEST(BudgetSchedule, EngineDeliversChangesAndTracksOvershoot) {
  Cluster cluster({GroupSpec{workload_by_name("Bayes"), 4, 9},
                   GroupSpec{workload_by_name("MG"), 4, 10}});
  SimulatedRapl rapl(8);
  EngineConfig config;
  config.total_budget = 880.0;
  config.target_completions = 1;
  config.max_time = 1500.0;
  config.record_trace = true;
  config.budget_schedule = {{100.0, 640.0}, {300.0, 880.0}};
  DpsManager dps;
  const auto result = SimulationEngine(config).run(cluster, rapl, dps);

  // No sustained overshoot: the shed happens inside the first decide()
  // after each change, so the cap sum written that step already complies.
  EXPECT_EQ(result.overshoot_steps, 0);

  // During the emergency window the trace shows the reduced allocation.
  Watts max_during_emergency = 0.0;
  for (int u = 0; u < 8; ++u) {
    const UnitTrace& series = result.trace->unit(u);
    for (std::size_t i = 0; i < series.time.size(); ++i) {
      if (series.time[i] > 110.0 && series.time[i] < 290.0) {
        max_during_emergency = std::max(max_during_emergency, series.cap[i]);
      }
    }
  }
  EXPECT_LE(max_during_emergency, 640.0);  // trivially below cluster total
}

// --- heterogeneous per-unit TDPs ---

TEST(HeterogeneousTdp, ContextLookup) {
  ManagerContext ctx = make_ctx(3);
  EXPECT_DOUBLE_EQ(ctx.tdp_of(1), 165.0);  // homogeneous default
  ctx.unit_tdp = {165.0, 125.0, 95.0};
  EXPECT_DOUBLE_EQ(ctx.tdp_of(0), 165.0);
  EXPECT_DOUBLE_EQ(ctx.tdp_of(2), 95.0);
}

TEST(HeterogeneousTdp, ConstantClampsAtSmallSocketTdp) {
  ConstantManager manager;
  ManagerContext ctx = make_ctx(2);     // constant cap = 110
  ctx.unit_tdp = {165.0, 95.0};
  manager.reset(ctx);
  std::vector<Watts> caps(2, 0.0);
  const std::vector<Watts> power(2, 50.0);
  manager.decide(power, caps);
  EXPECT_DOUBLE_EQ(caps[0], 110.0);
  EXPECT_DOUBLE_EQ(caps[1], 95.0);  // cannot exceed its own TDP
}

TEST(HeterogeneousTdp, MimdIncreaseStopsAtUnitTdp) {
  SlurmStatelessManager manager;
  ManagerContext ctx = make_ctx(2, 140.0);  // plenty of budget
  ctx.unit_tdp = {165.0, 125.0};
  manager.reset(ctx);
  std::vector<Watts> caps = {110.0, 110.0};
  for (int step = 0; step < 40; ++step) {
    const std::vector<Watts> power = {std::min(caps[0], 160.0) * 0.99,
                                      std::min(caps[1], 160.0) * 0.99};
    manager.decide(power, caps);
    EXPECT_LE(caps[1], 125.0 + 1e-9);
  }
  EXPECT_GT(caps[0], 140.0);            // big socket keeps growing
  EXPECT_NEAR(caps[1], 125.0, 1e-6);    // small socket saturates at its TDP
}

TEST(HeterogeneousTdp, DpsEqualizationDoesNotOverfillSmallSockets) {
  DpsManager manager;
  ManagerContext ctx = make_ctx(4);
  ctx.unit_tdp = {165.0, 165.0, 165.0, 90.0};
  manager.reset(ctx);
  std::vector<Watts> caps(4, ctx.constant_cap());
  for (int step = 0; step < 60; ++step) {
    std::vector<Watts> power(4);
    for (int u = 0; u < 4; ++u) {
      power[u] = std::min(caps[u], 160.0) * 0.99;  // everyone hungry
    }
    manager.decide(power, caps);
    EXPECT_LE(caps[3], 90.0 + 1e-9);
  }
}

// --- workload rotations ---

TEST(Rotation, GroupCyclesThroughItsWorkloads) {
  GroupSpec group;
  group.sockets = 2;
  group.seed = 3;
  auto quick = workload_by_name("Sort");
  quick.socket_skew = 0.0;
  auto quick2 = quick;
  quick2.name = "Sort2";
  group.rotation = {quick, quick2};
  Cluster cluster({group});
  std::vector<Watts> caps(2, 165.0), power(2);
  while (cluster.min_completions() < 4 && cluster.now() < 1000.0) {
    cluster.step(1.0, caps, power);
  }
  const auto& completions = cluster.completions(0);
  ASSERT_GE(completions.size(), 4u);
  EXPECT_EQ(completions[0].workload_index, 0);
  EXPECT_EQ(completions[1].workload_index, 1);
  EXPECT_EQ(completions[2].workload_index, 0);
  EXPECT_EQ(completions[3].workload_index, 1);
}

TEST(Rotation, EmptyRotationKeepsSingleWorkloadBehaviour) {
  Cluster cluster({GroupSpec{workload_by_name("Sort"), 2, 4}});
  std::vector<Watts> caps(2, 165.0), power(2);
  while (cluster.min_completions() < 2 && cluster.now() < 500.0) {
    cluster.step(1.0, caps, power);
  }
  for (const auto& c : cluster.completions(0)) {
    EXPECT_EQ(c.workload_index, 0);
  }
}

TEST(Rotation, MixedPowerTypesRotateCorrectGaps) {
  GroupSpec group;
  group.sockets = 2;
  group.seed = 5;
  auto spark = workload_by_name("Sort");  // gap 6 s
  auto npb = workload_by_name("MG");      // gap 12 s
  group.rotation = {spark, npb};
  Cluster cluster({group});
  std::vector<Watts> caps(2, 165.0), power(2);
  while (cluster.min_completions() < 3 && cluster.now() < 2000.0) {
    cluster.step(1.0, caps, power);
  }
  const auto& completions = cluster.completions(0);
  ASSERT_GE(completions.size(), 3u);
  // Gap after the Sort run (index 0) is Sort's 6 s; after MG it is 12 s.
  EXPECT_NEAR(completions[1].start - completions[0].end, 6.0, 1.5);
  EXPECT_NEAR(completions[2].start - completions[1].end, 12.0, 1.5);
}

}  // namespace
}  // namespace dps
