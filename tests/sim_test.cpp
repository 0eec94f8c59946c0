#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <vector>

#include "analysis/trace_analysis.hpp"
#include "core/dps_manager.hpp"
#include "managers/constant.hpp"
#include "sim/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/perf_model.hpp"
#include "sim/sim_node.hpp"
#include "sim/trace.hpp"
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
