#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/config_io.hpp"
#include "ctrl/tree.hpp"
#include "experiments/pair_runner.hpp"
#include "experiments/registry.hpp"
#include "managers/slurm_stateless.hpp"
#include "metrics/metrics.hpp"
#include "obs/phase.hpp"
#include "util/ini.hpp"

namespace dps {
namespace {

ExperimentParams quick_params() {
  ExperimentParams params;
  params.repeats = 1;
  params.seed = 11;
  return params;
}

TEST(Registry, LooksUpBothSuites) {
  EXPECT_EQ(workload_by_name("Kmeans").name, "Kmeans");
  EXPECT_EQ(workload_by_name("EP").name, "EP");
  EXPECT_THROW(workload_by_name("nope"), std::invalid_argument);
}

TEST(Registry, PaperStatsForEveryWorkload) {
  for (const auto& name : all_workload_names()) {
    const auto stats = paper_stats_by_name(name);
    EXPECT_GT(stats.duration, 0.0) << name;
    EXPECT_GE(stats.above_110_fraction, 0.0) << name;
    EXPECT_LE(stats.above_110_fraction, 1.0) << name;
  }
  EXPECT_EQ(all_workload_names().size(), 19u);
}

TEST(PairRunner, BaselineIsMemoized) {
  PairRunner runner(quick_params());
  const auto spec = workload_by_name("Sort");
  const double first = runner.baseline_hmean(spec);
  const double second = runner.baseline_hmean(spec);
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_GT(first, 0.0);
}

TEST(PairRunner, UncappedPowerExceedsCappedForHotWorkloads) {
  PairRunner runner(quick_params());
  const auto spec = workload_by_name("EP");
  EXPECT_GT(runner.uncapped_mean_power(spec), 110.0);
}

TEST(PairRunner, ConstantPairReproducesSoloBaseline) {
  // Group seeds derive from workload names, so the constant-manager paired
  // run must replay exactly the solo baseline latencies.
  PairRunner runner(quick_params());
  const auto a = workload_by_name("Bayes");
  const auto b = workload_by_name("Sort");
  const auto outcome = runner.run_pair(a, b, ManagerKind::kConstant);
  EXPECT_NEAR(outcome.a.speedup, 1.0, 1e-6);
  EXPECT_NEAR(outcome.a.hmean_latency, runner.baseline_hmean(a), 1e-6);
}

TEST(PairRunner, OutcomesAreInternallyConsistent) {
  PairRunner runner(quick_params());
  const auto outcome = runner.run_pair(workload_by_name("RF"),
                                       workload_by_name("FT"),
                                       ManagerKind::kDps);
  EXPECT_EQ(outcome.a.name, "RF");
  EXPECT_EQ(outcome.b.name, "FT");
  EXPECT_GE(outcome.a.latencies.size(), 1u);
  EXPECT_GE(outcome.b.latencies.size(), 1u);
  EXPECT_GT(outcome.fairness, 0.0);
  EXPECT_LE(outcome.fairness, 1.0);
  EXPECT_NEAR(outcome.pair_hmean,
              pair_hmean(outcome.a.speedup, outcome.b.speedup), 1e-12);
  EXPECT_GE(outcome.a.satisfaction, 0.0);
  EXPECT_LE(outcome.a.satisfaction, 1.0);
}

TEST(PairRunner, BudgetRespectedByEveryManager) {
  PairRunner runner(quick_params());
  const auto a = workload_by_name("LR");
  const auto b = workload_by_name("MG");
  const Watts budget = 110.0 * 20;
  for (const auto kind : {ManagerKind::kConstant, ManagerKind::kSlurm,
                          ManagerKind::kOracle, ManagerKind::kDps}) {
    const auto outcome = runner.run_pair(a, b, kind);
    EXPECT_LE(outcome.peak_cap_sum, budget + 1e-6) << to_string(kind);
  }
}

TEST(PairRunner, DpsBeatsSlurmUnderContention) {
  // The paper's headline (Section 6.3): under tight budgets DPS's pair
  // hmean exceeds SLURM's. One representative Spark x NPB pair.
  PairRunner runner(quick_params());
  const auto a = workload_by_name("LDA");
  const auto b = workload_by_name("CG");
  const auto dps = runner.run_pair(a, b, ManagerKind::kDps);
  const auto slurm = runner.run_pair(a, b, ManagerKind::kSlurm);
  EXPECT_GT(dps.pair_hmean, slurm.pair_hmean);
  EXPECT_GT(dps.fairness, slurm.fairness);
}

TEST(PairRunner, DpsHoldsConstantLowerBound) {
  PairRunner runner(quick_params());
  const auto outcome = runner.run_pair(workload_by_name("Kmeans"),
                                       workload_by_name("GMM"),
                                       ManagerKind::kDps);
  // Both workloads within a small tolerance of the constant baseline or
  // better (the paper's lower-bound guarantee; jitter allows ~2 %).
  EXPECT_GT(outcome.a.speedup, 0.97);
  EXPECT_GT(outcome.b.speedup, 0.97);
}

TEST(PairRunner, ManagerNames) {
  EXPECT_STREQ(to_string(ManagerKind::kConstant), "constant");
  EXPECT_STREQ(to_string(ManagerKind::kSlurm), "slurm");
  EXPECT_STREQ(to_string(ManagerKind::kOracle), "oracle");
  EXPECT_STREQ(to_string(ManagerKind::kDps), "dps");
  EXPECT_STREQ(to_string(ManagerKind::kFeedback), "feedback");
  EXPECT_STREQ(to_string(ManagerKind::kP2p), "p2p");
}

TEST(ManagerFactory, BuildsEveryKindByName) {
  for (const auto kind :
       {ManagerKind::kConstant, ManagerKind::kSlurm, ManagerKind::kOracle,
        ManagerKind::kDps, ManagerKind::kFeedback, ManagerKind::kP2p}) {
    ManagerKind parsed = ManagerKind::kConstant;
    ASSERT_TRUE(manager_kind_from_string(to_string(kind), parsed));
    EXPECT_EQ(parsed, kind);
    const auto manager = make_manager(
        kind, {}, slurm_plugin_defaults(),
        [](std::span<Watts> out) { std::fill(out.begin(), out.end(), 80.0); });
    EXPECT_EQ(manager->name(), to_string(kind));
  }
  ManagerKind kind = ManagerKind::kDps;
  EXPECT_FALSE(manager_kind_from_string("DPS", kind));
  EXPECT_FALSE(manager_kind_from_string("", kind));
  // Without a demand view there is no oracle to build.
  EXPECT_THROW(make_manager(ManagerKind::kOracle), std::invalid_argument);
}

TEST(ManagerFactory, BuildsSlurmFromTheStatelessValuesGiven) {
  // A [stateless] section far from the plugin defaults: the factory's
  // SLURM must decide as one built from it, not as the default one.
  const MimdConfig tuned = mimd_config_from_ini(
      IniFile::parse("[stateless]\ninc_percentile = 1.05\n"
                     "dec_percentile = 0.9\ndec_window_steps = 3\n"),
      slurm_plugin_defaults());
  const auto built = make_manager(ManagerKind::kSlurm, {}, tuned);
  SlurmStatelessManager direct(tuned);
  SlurmStatelessManager defaults;
  ManagerContext ctx;
  ctx.num_units = 6;
  ctx.total_budget = 600.0;
  for (PowerManager* m : {built.get(), static_cast<PowerManager*>(&direct),
                          static_cast<PowerManager*>(&defaults)}) {
    m->reset(ctx);
  }
  std::vector<Watts> caps_built(6, 100.0), caps_direct(6, 100.0),
      caps_default(6, 100.0), power(6, 0.0);
  bool differs_from_default = false;
  for (int r = 0; r < 40; ++r) {
    for (int u = 0; u < 6; ++u) {
      power[static_cast<std::size_t>(u)] =
          u % 2 == 0 ? 150.0 : 40.0 + 5.0 * (r % 4);
    }
    built->decide(power, caps_built);
    direct.decide(power, caps_direct);
    defaults.decide(power, caps_default);
    ASSERT_EQ(caps_built, caps_direct) << "round " << r;
    differs_from_default |= caps_built != caps_default;
  }
  EXPECT_TRUE(differs_from_default);
}

TEST(PairRunner, RecordedRunIsTheMeasuredRun) {
  // run_pair records the run it measures, under a flat manager or a tree,
  // into params.obs and its trace, never a solo baseline, and recording
  // changes no outcome.
  const auto a = workload_by_name("LDA");
  const auto b = workload_by_name("EP");
  ExperimentParams plain = quick_params();
  plain.repeats = 2;
  const auto dps = [&plain] { return make_manager(ManagerKind::kDps, plain.dps); };
  const PairManagerFactory tree = [&dps](DemandView) {
    CtrlConfig ctrl;
    ctrl.shard_size = 4;  // 5 shards: a root tier of its own
    return std::unique_ptr<PowerManager>(
        std::make_unique<TreeController>(ctrl, dps, dps));
  };
  const std::pair<ManagerKind, PairManagerFactory> runs[] = {
      {ManagerKind::kDps, {}}, {ManagerKind::kOracle, {}},
      {ManagerKind::kDps, tree}};
  for (const auto& [kind, make] : runs) {
    PairRunner unrecorded(plain);
    const auto measured = unrecorded.run_pair(a, b, kind, make);
    EXPECT_EQ(measured.trace, nullptr);

    ExperimentParams params = plain;
    params.obs = obs::ObsSink::create();
    params.obs.attach_phase_times();
    PairRunner runner(params);
    const auto recorded = runner.run_pair(a, b, kind, make, true);
    EXPECT_EQ(recorded.a.latencies, measured.a.latencies);
    EXPECT_EQ(recorded.b.latencies, measured.b.latencies);
    EXPECT_EQ(recorded.pair_hmean, measured.pair_hmean);
    EXPECT_EQ(recorded.steps, measured.steps);
    ASSERT_NE(recorded.trace, nullptr);
    EXPECT_EQ(recorded.trace->unit(0).time.back(), recorded.simulated_time);
    // The four solo baselines ran, but only the pair run's steps reached
    // the sink.
    EXPECT_EQ(runner.solo_runs(), 4);
    const auto steps = static_cast<std::uint64_t>(recorded.steps);
    EXPECT_EQ(params.obs.counter("engine_steps_total")->value(), steps);
    EXPECT_EQ(params.obs.phases()->entries(obs::Phase::kEngineDecide), steps);
  }
}

TEST(PairRunner, RejectsBadParams) {
  ExperimentParams bad;
  bad.repeats = 0;
  EXPECT_THROW(PairRunner{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace dps
