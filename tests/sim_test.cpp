#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <vector>

#include "analysis/trace_analysis.hpp"
#include "core/dps_manager.hpp"
#include "faults/fault_plan.hpp"
#include "managers/constant.hpp"
#include "sim/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/perf_model.hpp"
#include "sim/sim_node.hpp"
#include "sim/trace.hpp"
#include "thermal/thermal_model.hpp"
#include "util/rng.hpp"
#include "workloads/npb_suite.hpp"
#include "workloads/spark_suite.hpp"

namespace dps {
namespace {

// --- Performance model ---

TEST(PerfModel, FullSpeedWhenUncapped) {
  const PerfModel model;
  EXPECT_DOUBLE_EQ(model.speed(100.0, 110.0), 1.0);
  EXPECT_DOUBLE_EQ(model.speed(110.0, 110.0), 1.0);
  EXPECT_DOUBLE_EQ(model.power_drawn(100.0, 110.0), 100.0);
}

TEST(PerfModel, CubeLawSlowdownWhenCapped) {
  PerfModelConfig config;
  config.static_power = 20.0;
  config.exponent = 3.0;
  const PerfModel model(config);
  // demand 150, cap 110: speed = ((110-20)/(150-20))^(1/3)
  const double expected = std::cbrt(90.0 / 130.0);
  EXPECT_NEAR(model.speed(150.0, 110.0), expected, 1e-12);
  EXPECT_DOUBLE_EQ(model.power_drawn(150.0, 110.0), 110.0);
}

TEST(PerfModel, SpeedMonotoneInCap) {
  const PerfModel model;
  double prev = 0.0;
  for (Watts cap = 40.0; cap <= 165.0; cap += 5.0) {
    const double s = model.speed(160.0, cap);
    EXPECT_GE(s, prev);
    prev = s;
  }
  EXPECT_DOUBLE_EQ(prev, 1.0);
}

TEST(PerfModel, SpeedFlooredAtMinFrequency) {
  PerfModelConfig config;
  config.min_freq_ratio = 0.30;
  const PerfModel model(config);
  EXPECT_DOUBLE_EQ(model.speed(160.0, 1.0), 0.30);
}

TEST(PerfModel, PowerFloorWhenCapUnenforceable) {
  PerfModelConfig config;
  config.static_power = 20.0;
  config.exponent = 3.0;
  config.min_freq_ratio = 0.5;
  const PerfModel model(config);
  // demand 160 => dyn 140; floor = 20 + 140 * 0.5^3 = 37.5
  EXPECT_DOUBLE_EQ(model.floor_power(160.0), 37.5);
  EXPECT_DOUBLE_EQ(model.power_drawn(160.0, 25.0), 37.5);
}

TEST(PerfModel, AllStaticDemandIsUncappable) {
  PerfModelConfig config;
  config.static_power = 20.0;
  const PerfModel model(config);
  EXPECT_DOUBLE_EQ(model.speed(15.0, 5.0), 1.0);
}

TEST(PerfModel, RejectsBadConfig) {
  PerfModelConfig bad;
  bad.exponent = 0.0;
  EXPECT_THROW(PerfModel{bad}, std::invalid_argument);
  bad = PerfModelConfig{};
  bad.min_freq_ratio = 1.5;
  EXPECT_THROW(PerfModel{bad}, std::invalid_argument);
}

TEST(PerfModel, EnergyProportionality) {
  // Capping to x% of dynamic power must never speed a workload up: the
  // slowdown factor exceeds the power reduction factor under any convex
  // exponent — i.e. capped execution costs less energy per unit of work.
  const PerfModel model;
  const Watts demand = 150.0;
  for (Watts cap = 50.0; cap < demand; cap += 10.0) {
    const double speed = model.speed(demand, cap);
    const double power = model.power_drawn(demand, cap);
    EXPECT_LT(speed, 1.0);
    EXPECT_LE(power * (1.0 / speed), demand * 1.0 / speed);
    // Energy per work unit: capped <= uncapped (race-to-idle inverted for
    // cube law).
    EXPECT_LE(power / speed, demand / 1.0 + 1e-9);
  }
}

// --- Cluster ---

WorkloadSpec tiny_workload(Seconds high_duration = 10.0) {
  WorkloadSpec spec;
  spec.name = "tiny";
  spec.segments = {hold(5.0, 50.0), hold(high_duration, 150.0),
                   hold(5.0, 50.0)};
  spec.inter_run_gap = 2.0;
  spec.duration_jitter = 0.0;
  spec.power_jitter = 0.0;
  spec.socket_skew = 0.0;
  return spec;
}

TEST(Cluster, UncappedRunMatchesNominalDuration) {
  Cluster cluster({GroupSpec{tiny_workload(), 2, 1}});
  std::vector<Watts> caps(2, 165.0), power(2);
  while (cluster.min_completions() < 1 && cluster.now() < 100.0) {
    cluster.step(1.0, caps, power);
  }
  ASSERT_EQ(cluster.completions(0).size(), 1u);
  EXPECT_NEAR(cluster.completions(0)[0].latency(), 20.0, 1.01);
}

TEST(Cluster, CappingStretchesRuntime) {
  Cluster capped({GroupSpec{tiny_workload(40.0), 2, 1}});
  std::vector<Watts> caps(2, 110.0), power(2);
  while (capped.min_completions() < 1 && capped.now() < 200.0) {
    capped.step(1.0, caps, power);
  }
  const double latency = capped.completions(0)[0].latency();
  // 40 s at 150 W demand under a 110 W cap stretches by 1/speed ≈ 1.13.
  const double speed = PerfModel().speed(150.0, 110.0);
  EXPECT_NEAR(latency, 10.0 + 40.0 / speed, 2.0);
}

TEST(Cluster, TruePowerRespectsCap) {
  Cluster cluster({GroupSpec{tiny_workload(), 4, 3}});
  std::vector<Watts> caps(4, 90.0), power(4);
  for (int step = 0; step < 30; ++step) {
    cluster.step(1.0, caps, power);
    for (const Watts p : power) {
      EXPECT_LE(p, 90.0 + 1e-9);
    }
  }
}

TEST(Cluster, DemandVisibleAboveCap) {
  Cluster cluster({GroupSpec{tiny_workload(), 1, 1}});
  std::vector<Watts> caps(1, 60.0), power(1), demands(1);
  for (int step = 0; step < 8; ++step) cluster.step(1.0, caps, power);
  cluster.true_demands(demands);
  EXPECT_GT(demands[0], 140.0);  // in the 150 W phase despite the 60 W cap
  EXPECT_LE(power[0], 60.0 + 1e-9);
}

TEST(Cluster, GapBetweenRunsDrawsIdle) {
  auto spec = tiny_workload();
  spec.inter_run_gap = 5.0;
  Cluster cluster({GroupSpec{spec, 1, 1}});
  std::vector<Watts> caps(1, 165.0), power(1);
  // Run to completion of run 1.
  while (cluster.completions(0).empty()) cluster.step(1.0, caps, power);
  // Next step is inside the gap.
  cluster.step(1.0, caps, power);
  EXPECT_NEAR(power[0], kIdlePower, 1.0);
}

TEST(Cluster, RepeatsAfterGap) {
  Cluster cluster({GroupSpec{tiny_workload(), 1, 1}});
  std::vector<Watts> caps(1, 165.0), power(1);
  while (cluster.min_completions() < 3 && cluster.now() < 200.0) {
    cluster.step(1.0, caps, power);
  }
  EXPECT_EQ(cluster.completions(0).size(), 3u);
  // Starts are separated by at least duration + gap.
  const auto& c = cluster.completions(0);
  EXPECT_GE(c[1].start, c[0].end + 2.0 - 1e-9);
}

TEST(Cluster, LowPowerWorkloadActivatesOneSocket) {
  auto spec = spark_workload("Sort");
  spec.duration_jitter = 0.0;
  spec.socket_skew = 0.0;
  Cluster cluster({GroupSpec{spec, 10, 1}});
  std::vector<Watts> caps(10, 165.0), power(10);
  for (int step = 0; step < 20; ++step) cluster.step(1.0, caps, power);
  int active = 0;
  for (const Watts p : power) {
    if (p > kIdlePower + 5.0) ++active;
  }
  EXPECT_EQ(active, 1);
}

TEST(Cluster, GroupCompletionWaitsForSlowestSocket) {
  auto spec = tiny_workload();
  spec.socket_skew = 4.0;  // sockets start up to 4 s apart
  Cluster cluster({GroupSpec{spec, 5, 9}});
  std::vector<Watts> caps(5, 165.0), power(5);
  while (cluster.completions(0).empty() && cluster.now() < 100.0) {
    cluster.step(1.0, caps, power);
  }
  ASSERT_EQ(cluster.completions(0).size(), 1u);
  EXPECT_GE(cluster.completions(0)[0].latency(), 20.0);
}

TEST(Cluster, TwoGroupsTrackIndependently) {
  Cluster cluster({GroupSpec{tiny_workload(), 2, 1},
                   GroupSpec{tiny_workload(30.0), 2, 2}});
  EXPECT_EQ(cluster.total_units(), 4);
  EXPECT_EQ(cluster.num_groups(), 2);
  EXPECT_EQ(cluster.group_of(0), 0);
  EXPECT_EQ(cluster.group_of(3), 1);
  std::vector<Watts> caps(4, 165.0), power(4);
  while (cluster.min_completions() < 1 && cluster.now() < 200.0) {
    cluster.step(1.0, caps, power);
  }
  EXPECT_GE(cluster.completions(0).size(), cluster.completions(1).size());
}

TEST(Cluster, MeanPowerAccountsEnergy) {
  Cluster cluster({GroupSpec{tiny_workload(), 1, 1}});
  std::vector<Watts> caps(1, 165.0), power(1);
  double energy = 0.0;
  for (int step = 0; step < 15; ++step) {
    cluster.step(1.0, caps, power);
    energy += power[0];
  }
  EXPECT_NEAR(cluster.mean_true_power(0), energy / 15.0, 1e-9);
}

TEST(Cluster, RejectsBadConstruction) {
  EXPECT_THROW(Cluster({}), std::invalid_argument);
  EXPECT_THROW(Cluster({GroupSpec{tiny_workload(), 0, 1}}),
               std::invalid_argument);
}

TEST(Cluster, RejectsMismatchedSpans) {
  Cluster cluster({GroupSpec{tiny_workload(), 2, 1}});
  std::vector<Watts> caps(1, 100.0), power(2);
  EXPECT_THROW(cluster.step(1.0, caps, power), std::invalid_argument);
}

// --- Job mode: the cluster is the one record of which unit runs which job

std::vector<int> busy_units_of(const Cluster& cluster) {
  std::vector<int> busy;
  for (int u = 0; u < cluster.total_units(); ++u) {
    if (cluster.unit_busy(u)) busy.push_back(u);
  }
  return busy;
}

/// Steps `cluster` `steps` times at full speed, draining after each step;
/// returns the drained jobs in drain order.
std::vector<int> step_jobs(Cluster& cluster, int steps) {
  const auto n = static_cast<std::size_t>(cluster.total_units());
  const std::vector<Watts> caps(n, 165.0);
  std::vector<Watts> power(n);
  std::vector<int> drained;
  for (int step = 0; step < steps; ++step) {
    cluster.step(1.0, caps, power);
    for (const int job : cluster.drain_finished_jobs()) drained.push_back(job);
  }
  return drained;
}

TEST(Cluster, JobsFinishingInOneStepDrainInStartOrder) {
  Cluster cluster(6);
  // Started out of id order; all three finish in the same step.
  cluster.start_job(9, tiny_workload(), std::vector<int>{4, 5}, 1);
  cluster.start_job(4, tiny_workload(), std::vector<int>{0}, 2);
  cluster.start_job(7, tiny_workload(), std::vector<int>{1, 2}, 3);
  EXPECT_EQ(busy_units_of(cluster), (std::vector<int>{0, 1, 2, 4, 5}));
  EXPECT_TRUE(step_jobs(cluster, 19).empty());
  EXPECT_EQ(step_jobs(cluster, 1), (std::vector<int>{9, 4, 7}));
  EXPECT_TRUE(busy_units_of(cluster).empty());
  EXPECT_EQ(cluster.min_completions(), 3);
}

TEST(Cluster, StartJobRefusesARunningIdOrABoundUnitAndBindsNothing) {
  Cluster cluster(4);
  cluster.start_job(5, tiny_workload(), std::vector<int>{0, 1}, 1);
  const std::vector<std::vector<int>> refused = {
      {2, 3},   // job 5 is running
      {2, 1},   // unit 1 is bound
      {2, 4},   // out of range
      {2, -1},  // out of range
      {2, 2},   // bound by this very allocation
      {}};
  for (std::size_t i = 0; i < refused.size(); ++i) {
    const int job = i == 0 ? 5 : 6;
    EXPECT_THROW(cluster.start_job(job, tiny_workload(), refused[i], 2),
                 std::invalid_argument)
        << "case " << i;
    EXPECT_EQ(busy_units_of(cluster), (std::vector<int>{0, 1})) << "case " << i;
  }
  // The refused starts left no job behind: only job 5 runs, then job 6.
  EXPECT_EQ(step_jobs(cluster, 3), std::vector<int>{});
  cluster.start_job(6, tiny_workload(), std::vector<int>{3, 2}, 2);
  EXPECT_EQ(busy_units_of(cluster), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(step_jobs(cluster, 20), (std::vector<int>{5, 6}));

  Cluster groups({GroupSpec{tiny_workload(), 2, 1}});
  EXPECT_THROW(groups.start_job(0, tiny_workload(), std::vector<int>{0}, 1),
               std::logic_error);
}

TEST(Cluster, AbortOfAJobThatIsNotRunningDoesNothing) {
  Cluster cluster(4);
  cluster.start_job(1, tiny_workload(2.0), std::vector<int>{0, 1}, 1);
  cluster.start_job(2, tiny_workload(), std::vector<int>{2, 3}, 2);
  EXPECT_TRUE(step_jobs(cluster, 11).empty());
  // Job 1's 12 s of work end in the next step; it is not drained yet.
  const std::vector<Watts> caps(4, 165.0);
  std::vector<Watts> power(4);
  cluster.step(1.0, caps, power);
  EXPECT_EQ(busy_units_of(cluster), (std::vector<int>{2, 3}));
  cluster.abort_job(1);
  cluster.abort_job(99);
  EXPECT_EQ(cluster.drain_finished_jobs(), std::vector<int>{1});
  // Its units run job 3 now; aborting job 1 again leaves job 3 be.
  cluster.start_job(3, tiny_workload(), std::vector<int>{0, 1}, 3);
  cluster.abort_job(1);
  EXPECT_EQ(busy_units_of(cluster), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(step_jobs(cluster, 20), (std::vector<int>{2, 3}));
  // Aborting a running job frees its units at once.
  cluster.start_job(4, tiny_workload(), std::vector<int>{1, 2}, 4);
  cluster.abort_job(4);
  EXPECT_TRUE(busy_units_of(cluster).empty());
  EXPECT_TRUE(step_jobs(cluster, 25).empty());
}

// --- Engine ---

TEST(Engine, RunsToTargetCompletions) {
  Cluster cluster({GroupSpec{tiny_workload(), 2, 1},
                   GroupSpec{tiny_workload(), 2, 2}});
  SimulatedRapl rapl(4);
  EngineConfig config;
  config.total_budget = 440.0;
  config.target_completions = 2;
  config.max_time = 500.0;
  ConstantManager constant;
  const auto result = SimulationEngine(config).run(cluster, rapl, constant);
  EXPECT_GE(result.completions[0].size(), 2u);
  EXPECT_GE(result.completions[1].size(), 2u);
  EXPECT_GT(result.steps, 0);
  EXPECT_FALSE(result.timed_out);  // the goal was reached, not the clock
}

TEST(Engine, ConstantManagerCapSumEqualsBudget) {
  Cluster cluster({GroupSpec{tiny_workload(), 4, 1}});
  SimulatedRapl rapl(4);
  EngineConfig config;
  config.total_budget = 440.0;
  config.target_completions = 1;
  ConstantManager constant;
  const auto result = SimulationEngine(config).run(cluster, rapl, constant);
  EXPECT_NEAR(result.peak_cap_sum, 440.0, 1e-6);
}

TEST(Engine, TraceRecordingCapturesEverything) {
  Cluster cluster({GroupSpec{tiny_workload(), 2, 1}});
  SimulatedRapl rapl(2);
  EngineConfig config;
  config.total_budget = 220.0;
  config.target_completions = 1;
  config.record_trace = true;
  ConstantManager constant;
  const auto result = SimulationEngine(config).run(cluster, rapl, constant);
  ASSERT_NE(result.trace, nullptr);
  EXPECT_EQ(result.trace->num_units(), 2);
  EXPECT_EQ(static_cast<int>(result.trace->series(0).size()), result.steps);
}

TEST(Engine, MaxTimeStopsRunawayRuns) {
  auto spec = tiny_workload();
  spec.segments = {hold(1e6, 100.0)};  // effectively never finishes
  Cluster cluster({GroupSpec{spec, 1, 1}});
  SimulatedRapl rapl(1);
  EngineConfig config;
  config.total_budget = 110.0;
  config.target_completions = 1;
  config.max_time = 50.0;
  ConstantManager constant;
  const auto result = SimulationEngine(config).run(cluster, rapl, constant);
  EXPECT_LE(result.elapsed, 51.0);
  EXPECT_TRUE(result.completions[0].empty());
  EXPECT_TRUE(result.timed_out);
}

TEST(Engine, RejectsUnitCountMismatch) {
  Cluster cluster({GroupSpec{tiny_workload(), 2, 1}});
  SimulatedRapl rapl(3);
  ConstantManager constant;
  EngineConfig config;
  config.total_budget = 330.0;
  EXPECT_THROW(SimulationEngine(config).run(cluster, rapl, constant),
               std::invalid_argument);
}

TEST(Engine, RejectsBadConfig) {
  EngineConfig bad;
  bad.dt = 0.0;
  EXPECT_THROW(SimulationEngine{bad}, std::invalid_argument);
}

// --- SimNode ---

// The engine's sharded step: stepping the groups as blocks, in any order,
// then closing the step must match one Cluster::step bit for bit. The
// groups complete runs, sit in gaps, restart, rotate through workloads,
// idle inactive sockets and stall on a crashed unit.
TEST(Cluster, BlocksInAnyOrderMatchOneStep) {
  auto jittery = tiny_workload(6.0);
  jittery.duration_jitter = 0.2;
  jittery.power_jitter = 0.1;
  jittery.socket_skew = 2.0;
  auto sort = spark_workload("Sort");  // one active socket of the group
  const auto make_groups = [&] {
    return std::vector<GroupSpec>{
        GroupSpec{tiny_workload(), 3, 1},
        GroupSpec{jittery, 4, 2, {tiny_workload(4.0), jittery, sort}},
        GroupSpec{sort, 5, 3},
        GroupSpec{jittery, 2, 4},
        GroupSpec{tiny_workload(3.0), 1, 5, {jittery, tiny_workload(9.0)}},
        GroupSpec{jittery, 6, 6}};
  };
  const Cluster reference(make_groups());
  // Units 3 | 4 | 5 | 2+1 | 6: each block closes once it holds 3.
  const std::vector<Cluster::StepBlock> blocks = reference.step_blocks(3);
  ASSERT_EQ(blocks.size(), 5u);
  EXPECT_EQ(blocks[3].first_group, 3);
  EXPECT_EQ(blocks[3].last_group, 5);
  EXPECT_EQ(blocks[3].first_unit, 12);
  EXPECT_EQ(blocks[3].last_unit, 15);
  std::vector<std::vector<std::size_t>> orders(3);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    orders[0].push_back(b);
    orders[1].insert(orders[1].begin(), b);
  }
  orders[2] = {0, 2, 4, 1, 3};

  const auto n = static_cast<std::size_t>(reference.total_units());
  for (const auto& order : orders) {
    Cluster ref(make_groups()), blocked(make_groups());
    std::vector<Watts> caps(n), power_a(n), power_b(n), demand_a(n),
        demand_b(n);
    for (int step = 0; step < 120; ++step) {
      for (std::size_t u = 0; u < n; ++u) {
        caps[u] = 60.0 + static_cast<double>((u * 13 + step * 7) % 105);
      }
      const bool crashed = step >= 30 && step < 45;
      ref.set_crashed(5, crashed);
      blocked.set_crashed(5, crashed);
      ref.step(1.0, caps, power_a);
      for (const std::size_t b : order) {
        blocked.step_block(blocks[b], 1.0, caps, power_b);
      }
      blocked.end_step(1.0);
      ref.true_demands(demand_a);
      blocked.true_demands(demand_b);
      ASSERT_EQ(ref.now(), blocked.now());
      for (std::size_t u = 0; u < n; ++u) {
        ASSERT_EQ(power_a[u], power_b[u]) << "step " << step << " unit " << u;
        ASSERT_EQ(demand_a[u], demand_b[u]) << "step " << step << " unit " << u;
      }
    }
    for (int g = 0; g < ref.num_groups(); ++g) {
      const auto& a = ref.completions(g);
      const auto& b = blocked.completions(g);
      ASSERT_EQ(a.size(), b.size()) << "group " << g;
      EXPECT_FALSE(a.empty()) << "group " << g;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].start, b[i].start);
        EXPECT_EQ(a[i].end, b[i].end);
        EXPECT_EQ(a[i].workload_index, b[i].workload_index);
      }
      EXPECT_EQ(ref.group_mean_power(g), blocked.group_mean_power(g));
    }
    for (std::size_t u = 0; u < n; ++u) {
      EXPECT_EQ(ref.mean_true_power(static_cast<int>(u)),
                blocked.mean_true_power(static_cast<int>(u)));
    }
  }
  // The rotating group's completions name more than one workload.
  const std::vector<int> rotated = [&] {
    Cluster c(make_groups());
    std::vector<Watts> caps(n, 165.0), power(n);
    for (int step = 0; step < 120; ++step) c.step(1.0, caps, power);
    std::vector<int> seen;
    for (const auto& done : c.completions(1)) seen.push_back(done.workload_index);
    return seen;
  }();
  EXPECT_GT(std::set<int>(rotated.begin(), rotated.end()).size(), 1u);
}

/// Sets every cap to 60, 110 and 165 W in turn, 7 steps each, and records
/// the readings it is given.
class ScriptedCaps final : public PowerManager {
 public:
  static Watts cap_at(int step) {
    constexpr Watts kCaps[] = {60.0, 110.0, 165.0};
    return kCaps[(step / 7) % 3];
  }

  std::string_view name() const override { return "scripted"; }
  void reset(const ManagerContext&) override { readings.clear(); }
  void decide(std::span<const Watts> power, std::span<Watts> caps) override {
    const int step = static_cast<int>(readings.size());
    readings.push_back(power[0]);
    std::fill(caps.begin(), caps.end(), cap_at(step));
  }
  void update_budget(Watts) override {}

  std::vector<Watts> readings;
};

/// A SimNode reads bit for bit what a one-socket engine run keyed on the
/// same (seed, unit) reads under the same caps, so the node's calls keep
/// the engine's step order.
void expect_node_matches_engine(const WorkloadSpec& spec) {
  constexpr std::uint64_t kSeed = 7;
  constexpr int kUnit = 3;
  constexpr int kSteps = 400;
  Cluster cluster({GroupSpec{spec, 1, mix_seed(kSeed, kUnit)}});
  RaplSimConfig rapl_config;
  rapl_config.noise_seed = mix_seed(kSeed, kUnit, 0x7261706cULL);
  SimulatedRapl rapl(1, rapl_config);
  EngineConfig config;
  config.total_budget = 110.0;
  config.target_completions = 1000;
  config.max_time = kSteps;
  ScriptedCaps manager;
  const auto result = SimulationEngine(config).run(cluster, rapl, manager);
  ASSERT_EQ(result.steps, kSteps);

  SimNode node(spec, kSeed, kUnit);
  node.apply(110.0);  // the engine starts from the constant allocation
  for (int step = 0; step < kSteps; ++step) {
    const Watts reading = node.report();
    ASSERT_EQ(reading, manager.readings[static_cast<std::size_t>(step)])
        << spec.name << " step " << step;
    node.apply(ScriptedCaps::cap_at(step));
  }
  ASSERT_FALSE(node.completions().empty());
  ASSERT_EQ(node.completions().size(), result.completions[0].size());
  for (std::size_t i = 0; i < node.completions().size(); ++i) {
    EXPECT_EQ(node.completions()[i].end, result.completions[0][i].end);
  }
  EXPECT_EQ(node.spec().name, spec.name);
}

TEST(SimNode, ReadsLikeTheEngineOnAPhasedWorkload) {
  expect_node_matches_engine(spark_workload("Bayes"));
}

TEST(SimNode, ReadsLikeTheEngineOnASustainedWorkload) {
  expect_node_matches_engine(npb_workload("MG"));
}

// --- Trace recorder ---

TEST(Trace, CsvRoundTripHasHeaderAndRows) {
  TraceRecorder trace(1);
  trace.record(0, TraceSample{1.0, 100.0, 101.0, 110.0, 120.0});
  trace.record(0, TraceSample{2.0, 102.0, 99.0, 110.0, 121.0});
  const std::string path = testing::TempDir() + "/trace_test.csv";
  trace.write_csv(path);
  std::ifstream in(path);
  std::string line;
  int rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 3);
}

TEST(Trace, CsvReloadsDpsTraceBitForBit) {
  // An LDA x EP pair under DPS, as `exp --a LDA --b EP --manager dps
  // --trace` records it (over a shorter horizon): its caps sit just below
  // round numbers such as 110 W, which a rounded CSV would move.
  EngineConfig config;
  config.target_completions = 1;
  config.record_trace = true;
  config.total_budget = 110.0 * 20;
  config.max_time = 400.0;
  Cluster cluster({GroupSpec{spark_workload("LDA"), 10, 1},
                   GroupSpec{npb_workload("EP"), 10, 2}});
  SimulatedRapl rapl(cluster.total_units());
  DpsManager manager;
  const auto result = SimulationEngine(config).run(cluster, rapl, manager);
  ASSERT_NE(result.trace, nullptr);
  const std::string path = testing::TempDir() + "/dps_trace_test.csv";
  result.trace->write_csv(path);
  const Trace loaded = Trace::load_csv(path);
  ASSERT_EQ(loaded.num_units(), cluster.total_units());
  int uneven_caps = 0;
  for (int u = 0; u < cluster.total_units(); ++u) {
    const auto& recorded = result.trace->series(u);
    const UnitTrace& got = loaded.unit(u);
    ASSERT_EQ(got.time.size(), recorded.size());
    for (std::size_t i = 0; i < recorded.size(); ++i) {
      const TraceSample& want = recorded[i];
      EXPECT_EQ(got.time[i], want.time) << u << " " << i;
      EXPECT_EQ(got.true_power[i], want.true_power) << u << " " << i;
      EXPECT_EQ(got.measured_power[i], want.measured_power) << u << " " << i;
      EXPECT_EQ(got.cap[i], want.cap) << u << " " << i;
      EXPECT_EQ(got.demand[i], want.demand) << u << " " << i;
      EXPECT_EQ(got.priority[i], want.priority) << u << " " << i;
      if (std::round(want.cap * 1e4) != want.cap * 1e4) ++uneven_caps;
    }
  }
  // Caps that four decimals cannot hold, or the reload proves little.
  EXPECT_GT(uneven_caps, 100);
}

TEST(Trace, CsvReloadsFaultedThermalTraceBitForBit) {
  // The stricter reader accepts what the engine writes under every fault
  // kind, sensor garbage and dropout included, with the thermal governor
  // rewriting caps.
  constexpr int kUnits = 20;
  FaultPlanConfig faults;
  faults.seed = 11;
  faults.horizon = 300.0;
  faults.crash_rate = faults.sensor_dropout_rate = 20.0;
  faults.sensor_garbage_rate = faults.cap_stuck_rate = 20.0;
  faults.budget_sag_rate = faults.fan_degrade_rate = 20.0;
  faults.temp_stuck_rate = 20.0;
  faults.min_duration = 10.0;
  faults.max_duration = 60.0;
  const auto plan = std::make_shared<FaultPlan>(
      FaultPlan::generate(faults, kUnits));
  for (const FaultKind kind :
       {FaultKind::kSensorGarbage, FaultKind::kSensorDropout}) {
    ASSERT_TRUE(std::any_of(
        plan->events().begin(), plan->events().end(),
        [&](const FaultEvent& e) { return e.kind == kind; }));
  }
  EngineConfig config;
  config.target_completions = 1;
  config.record_trace = true;
  config.total_budget = 110.0 * kUnits;
  config.max_time = 300.0;
  config.fault_plan = plan;
  ThermalConfig thermal;
  thermal.trip_c = 70.0;
  thermal.clear_c = 62.0;
  config.thermal = thermal;
  Cluster cluster({GroupSpec{spark_workload("Kmeans"), 10, 1},
                   GroupSpec{npb_workload("CG"), 10, 2}});
  SimulatedRapl rapl(kUnits);
  DpsManager manager;
  const auto result = SimulationEngine(config).run(cluster, rapl, manager);
  ASSERT_NE(result.trace, nullptr);
  EXPECT_GT(result.faults_injected, 0);
  EXPECT_GT(result.thermal_throttle_events, 0);
  const std::string path = testing::TempDir() + "/faulted_trace_test.csv";
  result.trace->write_csv(path);
  const Trace loaded = Trace::load_csv(path);
  ASSERT_EQ(loaded.num_units(), kUnits);
  for (int u = 0; u < kUnits; ++u) {
    const auto& recorded = result.trace->series(u);
    const UnitTrace& got = loaded.unit(u);
    ASSERT_EQ(got.time.size(), recorded.size());
    for (std::size_t i = 0; i < recorded.size(); ++i) {
      EXPECT_EQ(got.time[i], recorded[i].time) << u << " " << i;
      EXPECT_EQ(got.true_power[i], recorded[i].true_power) << u << " " << i;
      EXPECT_EQ(got.measured_power[i], recorded[i].measured_power)
          << u << " " << i;
      EXPECT_EQ(got.cap[i], recorded[i].cap) << u << " " << i;
      EXPECT_EQ(got.demand[i], recorded[i].demand) << u << " " << i;
      EXPECT_EQ(got.priority[i], recorded[i].priority) << u << " " << i;
    }
  }
}

TEST(Trace, ColumnExtractors) {
  TraceRecorder trace(2);
  trace.record(1, TraceSample{1.0, 50.0, 51.0, 110.0, 60.0});
  trace.record(1, TraceSample{2.0, 55.0, 54.0, 110.0, 61.0});
  EXPECT_EQ(trace.measured_of(1), (std::vector<double>{51.0, 54.0}));
  EXPECT_EQ(trace.true_power_of(1), (std::vector<double>{50.0, 55.0}));
  EXPECT_EQ(trace.cap_of(1), (std::vector<double>{110.0, 110.0}));
  EXPECT_TRUE(trace.series(0).empty());
}

}  // namespace
}  // namespace dps
