/// Figure 7 — fairness (Equations 1-2) of the two high-utility workload
/// groups under DPS and SLURM. Re-runs the Figure 5 pairings (Spark high
/// utility) and the Figure 6 pairings (Spark x NPB) and prints the
/// distribution of per-pair fairness for each manager.
///
/// Paper shapes: DPS ~0.97 / ~0.96 mean fairness; SLURM ~0.75 / ~0.71;
/// DPS's fairness is higher than SLURM's for every workload, and higher
/// fairness correlates with higher pair hmean performance.
///
/// DPS_FULL=1 widens the high-utility set to all 49 pairs.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "experiments/registry.hpp"
#include "metrics/metrics.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "workloads/npb_suite.hpp"
#include "workloads/spark_suite.hpp"

namespace {

using namespace dps;

struct GroupResult {
  std::vector<double> slurm_fairness, dps_fairness;
  std::vector<double> slurm_pair, dps_pair;
  int dps_wins = 0;
  int pair_count = 0;
};

GroupResult run_group(
    PairRunner& runner,
    const std::vector<std::pair<std::string, std::string>>& pairs,
    CsvWriter& csv, const char* group_name) {
  GroupResult result;
  // Both managers of one pair form a single sweep task; the ordered sweep
  // hands results back in pair order, so the CSV matches the serial run.
  struct PairOutcomes {
    PairOutcome slurm, dps;
  };
  const auto outcomes = sweep_ordered(pairs.size(), [&](std::size_t i) {
    const auto a = workload_by_name(pairs[i].first);
    const auto b = workload_by_name(pairs[i].second);
    return PairOutcomes{runner.run_pair(a, b, ManagerKind::kSlurm),
                        runner.run_pair(a, b, ManagerKind::kDps)};
  });
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto& [a_name, b_name] = pairs[i];
    const auto& slurm = outcomes[i].slurm;
    const auto& dps = outcomes[i].dps;
    result.slurm_fairness.push_back(slurm.fairness);
    result.dps_fairness.push_back(dps.fairness);
    result.slurm_pair.push_back(slurm.pair_hmean);
    result.dps_pair.push_back(dps.pair_hmean);
    if (dps.fairness >= slurm.fairness) ++result.dps_wins;
    ++result.pair_count;
    csv.write_row({group_name, a_name, b_name,
                   format_double(slurm.fairness, 4),
                   format_double(dps.fairness, 4),
                   format_double(slurm.pair_hmean, 4),
                   format_double(dps.pair_hmean, 4)});
  }
  return result;
}

/// Pearson correlation, for the paper's "fairness correlates with hmean
/// performance" observation.
double correlation(const std::vector<double>& x,
                   const std::vector<double>& y) {
  const double mx = summarize(x).mean, my = summarize(y).mean;
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  return sxx > 0 && syy > 0 ? sxy / std::sqrt(sxx * syy) : 0.0;
}

void print_group(const char* title, const GroupResult& result) {
  const auto slurm = summarize(result.slurm_fairness);
  const auto dps = summarize(result.dps_fairness);
  std::printf("%s (%d pairs):\n", title, result.pair_count);
  Table table({"manager", "mean", "median", "min", "max"});
  table.add_row({"slurm", format_double(slurm.mean, 3),
                 format_double(slurm.median, 3), format_double(slurm.min, 3),
                 format_double(slurm.max, 3)});
  table.add_row({"dps", format_double(dps.mean, 3),
                 format_double(dps.median, 3), format_double(dps.min, 3),
                 format_double(dps.max, 3)});
  table.print();
  std::printf("pairs where DPS fairness >= SLURM: %d / %d\n\n",
              result.dps_wins, result.pair_count);
}

}  // namespace

int main() {
  using namespace dps;
  PairRunner runner(dps::bench::params_from_env());
  const bool full = dps::bench::int_knob("DPS_FULL", 0, 0, 1) == 1;

  std::printf("Figure 7 reproduction: fairness of the high-utility groups.\n\n");

  CsvWriter csv(dps::bench::out_dir() + "/fig7_fairness.csv");
  csv.write_header({"group", "a", "b", "slurm_fairness", "dps_fairness",
                    "slurm_pair_hmean", "dps_pair_hmean"});

  const auto mids = spark_mid_high_names();
  std::vector<std::pair<std::string, std::string>> high_utility;
  if (full) {
    for (const auto& a : mids) {
      for (const auto& b : mids) high_utility.emplace_back(a, b);
    }
  } else {
    for (const auto& a : mids) high_utility.emplace_back(a, "GMM");
  }
  const auto high = run_group(runner, high_utility, csv, "high_utility");
  print_group("Spark high utility", high);

  std::vector<std::pair<std::string, std::string>> spark_npb;
  for (const auto& a : mids) {
    for (const auto& b : npb_names()) spark_npb.emplace_back(a, b);
  }
  const auto npb = run_group(runner, spark_npb, csv, "spark_npb");
  print_group("Spark & NPB", npb);

  std::vector<double> all_fairness, all_pair;
  for (const auto* group : {&high, &npb}) {
    all_fairness.insert(all_fairness.end(), group->slurm_fairness.begin(),
                        group->slurm_fairness.end());
    all_fairness.insert(all_fairness.end(), group->dps_fairness.begin(),
                        group->dps_fairness.end());
    all_pair.insert(all_pair.end(), group->slurm_pair.begin(),
                    group->slurm_pair.end());
    all_pair.insert(all_pair.end(), group->dps_pair.begin(),
                    group->dps_pair.end());
  }
  std::printf(
      "fairness vs pair-hmean correlation across all runs: %.2f\n"
      "(paper observes a general positive correlation; paper means:\n"
      " high utility 0.97 dps / 0.75 slurm, Spark&NPB 0.96 / 0.71)\n",
      correlation(all_fairness, all_pair));
  return 0;
}
