/// End-to-end tests of the whole stack: workload models -> simulated RAPL
/// -> managers -> engine -> metrics, asserting the paper's system-level
/// claims on small but complete experiments.

#include <gtest/gtest.h>

#include "core/dps_manager.hpp"
#include "experiments/pair_runner.hpp"
#include "experiments/registry.hpp"
#include "managers/constant.hpp"
#include "managers/slurm_stateless.hpp"
#include "sim/engine.hpp"

namespace dps {
namespace {

ExperimentParams quick_params(std::uint64_t seed = 5) {
  ExperimentParams params;
  params.repeats = 1;
  params.seed = seed;
  return params;
}

TEST(Integration, DeterministicGivenSeed) {
  PairRunner runner_a(quick_params(77));
  PairRunner runner_b(quick_params(77));
  const auto a = workload_by_name("Bayes");
  const auto b = workload_by_name("IS");
  const auto first = runner_a.run_pair(a, b, ManagerKind::kDps);
  const auto second = runner_b.run_pair(a, b, ManagerKind::kDps);
  EXPECT_DOUBLE_EQ(first.a.hmean_latency, second.a.hmean_latency);
  EXPECT_DOUBLE_EQ(first.b.hmean_latency, second.b.hmean_latency);
  EXPECT_DOUBLE_EQ(first.fairness, second.fairness);
}

TEST(Integration, DifferentSeedsDiffer) {
  PairRunner runner_a(quick_params(1));
  PairRunner runner_b(quick_params(2));
  const auto a = workload_by_name("Bayes");
  const auto b = workload_by_name("IS");
  const auto first = runner_a.run_pair(a, b, ManagerKind::kDps);
  const auto second = runner_b.run_pair(a, b, ManagerKind::kDps);
  EXPECT_NE(first.a.hmean_latency, second.a.hmean_latency);
}

/// The paper's headline claims on one representative pair per group,
/// parameterized over seeds so the claims are not one-seed flukes.
class HeadlineClaims : public testing::TestWithParam<std::uint64_t> {};

TEST_P(HeadlineClaims, DpsAtLeastSlurmOnSparkNpb) {
  PairRunner runner(quick_params(GetParam()));
  const auto a = workload_by_name("RF");
  const auto b = workload_by_name("CG");
  const auto dps = runner.run_pair(a, b, ManagerKind::kDps);
  const auto slurm = runner.run_pair(a, b, ManagerKind::kSlurm);
  EXPECT_GT(dps.pair_hmean, slurm.pair_hmean * 0.995);
  EXPECT_GT(dps.fairness, slurm.fairness * 0.95);
}

TEST_P(HeadlineClaims, DpsLowerBoundNearConstant) {
  PairRunner runner(quick_params(GetParam()));
  const auto outcome = runner.run_pair(workload_by_name("Bayes"),
                                       workload_by_name("GMM"),
                                       ManagerKind::kDps);
  EXPECT_GT(outcome.a.speedup, 0.96);
  EXPECT_GT(outcome.b.speedup, 0.96);
}

TEST_P(HeadlineClaims, BudgetNeverExceeded) {
  PairRunner runner(quick_params(GetParam()));
  const auto a = workload_by_name("LR");
  const auto b = workload_by_name("FT");
  for (const auto kind : {ManagerKind::kSlurm, ManagerKind::kOracle,
                          ManagerKind::kDps}) {
    const auto outcome = runner.run_pair(a, b, kind);
    EXPECT_LE(outcome.peak_cap_sum, 2200.0 + 1e-6) << to_string(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeadlineClaims,
                         testing::Values(1u, 7u, 42u, 1234u));

TEST(Integration, LowUtilityDpsTracksOracle) {
  PairRunner runner(quick_params());
  const auto a = workload_by_name("LDA");
  const auto b = workload_by_name("Wordcount");
  const auto dps = runner.run_pair(a, b, ManagerKind::kDps);
  const auto oracle = runner.run_pair(a, b, ManagerKind::kOracle);
  // When demands rarely exceed the budget, DPS should land within a couple
  // of percent of the demand-clairvoyant oracle (paper Section 6.1).
  EXPECT_GT(dps.a.speedup, oracle.a.speedup - 0.03);
  EXPECT_GT(dps.a.speedup, 1.0);  // and above constant allocation
}

TEST(Integration, HighFrequencyWorkloadProtected) {
  PairRunner runner(quick_params());
  const auto lr = workload_by_name("LR");
  const auto gmm = workload_by_name("GMM");
  const auto dps = runner.run_pair(lr, gmm, ManagerKind::kDps);
  const auto slurm = runner.run_pair(lr, gmm, ManagerKind::kSlurm);
  // Figure 4/5's LR story: DPS holds the lower bound on the bursty
  // workload; SLURM pays for reacting to bursts it cannot follow.
  EXPECT_GT(dps.a.speedup, 0.97);
  EXPECT_GT(dps.a.speedup, slurm.a.speedup - 0.005);
}

TEST(Integration, DpsRestoresDuringJointIdle) {
  // Two workloads whose gaps overlap: when both clusters are idle, DPS
  // must restore all caps to the constant allocation (Algorithm 3) so the
  // next run starts with headroom. Verified via the trace.
  auto a = workload_by_name("Sort");
  a.inter_run_gap = 30.0;
  auto b = workload_by_name("Sort");
  b.inter_run_gap = 30.0;

  Cluster cluster({GroupSpec{a, 4, 1}, GroupSpec{b, 4, 2}});
  SimulatedRapl rapl(8);
  EngineConfig config;
  config.total_budget = 880.0;
  config.target_completions = 2;
  config.record_trace = true;
  config.max_time = 400.0;
  DpsManager dps;
  const auto result = SimulationEngine(config).run(cluster, rapl, dps);

  // Find a step where every unit sits at the constant cap.
  int restored_steps = 0;
  const int steps = result.steps;
  for (int s = 0; s < steps; ++s) {
    bool all_constant = true;
    for (int u = 0; u < 8; ++u) {
      if (std::abs(result.trace->unit(u).cap[s] - 110.0) > 0.01) {
        all_constant = false;
        break;
      }
    }
    if (all_constant) ++restored_steps;
  }
  EXPECT_GT(restored_steps, 10);
}

TEST(Integration, SoloRunStatisticsSane) {
  PairRunner runner(quick_params());
  for (const auto& name : {"Kmeans", "EP", "Sort"}) {
    const auto spec = workload_by_name(name);
    const double capped = runner.baseline_hmean(spec);
    const Watts uncapped_power = runner.uncapped_mean_power(spec);
    EXPECT_GT(capped, 0.9 * spec.nominal_duration()) << name;
    EXPECT_GT(uncapped_power, kIdlePower) << name;
    EXPECT_LT(uncapped_power, 165.0) << name;
  }
}

TEST(Integration, TraceCapsMatchEnforcement) {
  // Under any manager, the recorded true power never exceeds the recorded
  // cap by more than the perf model's enforcement floor allows.
  Cluster cluster({GroupSpec{workload_by_name("Bayes"), 4, 3},
                   GroupSpec{workload_by_name("MG"), 4, 4}});
  SimulatedRapl rapl(8);
  EngineConfig config;
  config.total_budget = 880.0;
  config.target_completions = 1;
  config.record_trace = true;
  config.max_time = 3000.0;
  SlurmStatelessManager slurm;
  const auto result = SimulationEngine(config).run(cluster, rapl, slurm);
  const PerfModel model;
  for (int u = 0; u < 8; ++u) {
    const UnitTrace& series = result.trace->unit(u);
    // Each row's power was produced under the cap decided in the previous
    // row (the engine steps the hardware, then the manager rewrites caps).
    for (std::size_t s = 1; s < series.time.size(); ++s) {
      const Watts enforced = series.cap[s - 1];
      const Watts allowed =
          std::max(enforced, model.floor_power(series.demand[s]));
      EXPECT_LE(series.true_power[s], allowed + 1e-6);
    }
  }
}

}  // namespace
}  // namespace dps
