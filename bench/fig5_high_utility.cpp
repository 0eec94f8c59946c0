/// Figure 5 — Spark high-utility group: mid-power Spark workloads co-run
/// with the high-power workload (GMM); cluster-wide demand frequently
/// exceeds the budget. (a) reports each mid-power workload's own hmean
/// speedup; (b) the harmonic mean of the workload's and its paired GMM's
/// speedups — the paper's Figure 5(a)/(b).
///
/// Set DPS_FULL=1 to run the paper's exhaustive 49-pair sweep (all
/// mid/high x mid/high pairs) instead of the 7 GMM pairings; aggregation
/// is then across every partner.
///
/// Paper shapes: DPS never falls below constant allocation and gains up to
/// ~5 %; SLURM penalizes the long-phase workloads (Kmeans, LDA, RF) by up
/// to ~14 % and the high-frequency ones (Linear, LR) by up to ~8 %.

#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "metrics/metrics.hpp"
#include "signal/rolling.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "workloads/spark_suite.hpp"

int main() {
  using namespace dps;
  PairRunner runner(dps::bench::params_from_env());
  const bool full = dps::bench::int_knob("DPS_FULL", 0, 0, 1) == 1;

  const auto all = spark_mid_high_names();
  std::vector<std::pair<std::string, std::string>> pairs;
  if (full) {
    for (const auto& a : all) {
      for (const auto& b : all) pairs.emplace_back(a, b);
    }
  } else {
    for (const auto& a : all) pairs.emplace_back(a, "GMM");
  }

  std::printf(
      "Figure 5 reproduction: Spark high-utility group, %zu pairs "
      "(repeats=%d%s).\n\n",
      pairs.size(), runner.params().repeats,
      full ? ", DPS_FULL sweep" : "; set DPS_FULL=1 for all 49 pairs");

  CsvWriter csv(dps::bench::out_dir() + "/fig5_high_utility.csv");
  csv.write_header({"workload", "partner", "manager", "workload_speedup",
                    "partner_speedup", "pair_hmean", "fairness"});

  // manager -> workload -> {own speedups, pair hmeans, fairness}.
  struct Agg {
    std::vector<double> own, pair, fair;
  };
  std::map<std::string, std::map<std::string, Agg>> stats;

  for (const auto& [a_name, b_name] : pairs) {
    const auto a = spark_workload(a_name);
    const auto b = spark_workload(b_name);
    for (const auto kind : {ManagerKind::kSlurm, ManagerKind::kDps}) {
      const auto outcome = runner.run_pair(a, b, kind);
      auto& agg = stats[to_string(kind)][a_name];
      agg.own.push_back(outcome.a.speedup);
      agg.pair.push_back(outcome.pair_hmean);
      agg.fair.push_back(outcome.fairness);
      csv.write_row({a_name, b_name, to_string(kind),
                     format_double(outcome.a.speedup, 4),
                     format_double(outcome.b.speedup, 4),
                     format_double(outcome.pair_hmean, 4),
                     format_double(outcome.fairness, 4)});
    }
  }

  Table table_a({"workload", "slurm", "dps"});
  Table table_b({"workload", "slurm", "dps", "slurm fairness",
                 "dps fairness"});
  std::vector<double> slurm_pairs, dps_pairs, slurm_fair, dps_fair;
  for (const auto& name : all) {
    auto& slurm = stats["slurm"][name];
    auto& dps_stats = stats["dps"][name];
    if (slurm.own.empty()) continue;
    table_a.add_row({name, dps::bench::percent(harmonic_mean(slurm.own)),
                     dps::bench::percent(harmonic_mean(dps_stats.own))});
    const double sp = harmonic_mean(slurm.pair);
    const double dp = harmonic_mean(dps_stats.pair);
    const double sf = summarize(slurm.fair).mean;
    const double df = summarize(dps_stats.fair).mean;
    table_b.add_row({name, dps::bench::percent(sp), dps::bench::percent(dp),
                     format_double(sf, 3), format_double(df, 3)});
    slurm_pairs.push_back(sp);
    dps_pairs.push_back(dp);
    slurm_fair.push_back(sf);
    dps_fair.push_back(df);
  }
  std::printf("(a) each workload's own hmean gain vs constant:\n\n");
  table_a.print();
  std::printf("\n(b) pair hmean gain (workload + paired partner):\n\n");
  table_b.print();

  std::printf(
      "\nmean pair gain: slurm %s, dps %s; dps advantage over slurm %s\n"
      "mean fairness: slurm %.2f, dps %.2f (paper: 0.75 vs 0.97)\n"
      "paper shapes: dps >= constant everywhere; slurm penalizes long-phase\n"
      "and high-frequency workloads (down to -8%% pair hmean).\n",
      dps::bench::percent(harmonic_mean(slurm_pairs)).c_str(),
      dps::bench::percent(harmonic_mean(dps_pairs)).c_str(),
      dps::bench::percent(harmonic_mean(dps_pairs) /
                          harmonic_mean(slurm_pairs)).c_str(),
      summarize(slurm_fair).mean, summarize(dps_fair).mean);
  return 0;
}
