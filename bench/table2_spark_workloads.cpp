/// Table 2 — Spark benchmark workload characterization: mean latency under
/// the constant 110 W/socket allocation and the share of time spent above
/// 110 W (measured on the uncapped run). Prints the simulated values next
/// to the paper's published numbers.

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "managers/constant.hpp"
#include "sim/engine.hpp"
#include "workloads/spark_suite.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace dps;

/// Share of 1 Hz samples above 110 W on an uncapped solo run (active
/// socket only, active portions only).
double measured_fraction_above(const WorkloadSpec& spec, Watts threshold) {
  Cluster cluster({GroupSpec{spec, 10, 17}});
  SimulatedRapl rapl(cluster.total_units());
  EngineConfig config;
  config.total_budget = 165.0 * cluster.total_units();
  config.target_completions = 1;
  config.record_trace = true;
  config.max_time = 4.0 * (spec.nominal_duration() + spec.inter_run_gap);
  ConstantManager constant;
  const auto result = SimulationEngine(config).run(cluster, rapl, constant);
  int above = 0, active = 0;
  for (const double p : result.trace->unit(0).true_power) {
    if (p > kIdlePower + 2.0) ++active;
    if (p > threshold) ++above;
  }
  return active > 0 ? static_cast<double>(above) / active : 0.0;
}

}  // namespace

int main() {
  using namespace dps;
  PairRunner runner(dps::bench::params_from_env());

  std::printf(
      "Table 2 reproduction: Spark workloads under constant 110 W caps.\n"
      "(paper columns in parentheses; durations are hmean over %d runs)\n\n",
      runner.params().repeats);

  Table table({"workload", "power type", "duration [s]", "(paper [s])",
               "above 110W", "(paper)"});
  CsvWriter csv(dps::bench::out_dir() + "/table2_spark.csv");
  csv.write_header({"workload", "power_type", "duration_s", "paper_duration_s",
                    "above_110_frac", "paper_above_110_frac"});

  const auto suite = spark_suite();
  struct Row {
    double duration = 0.0;
    double above = 0.0;
  };
  const auto rows = sweep_ordered(suite.size(), [&](std::size_t i) {
    return Row{runner.baseline_hmean(suite[i]),
               measured_fraction_above(suite[i], 110.0)};
  });

  for (std::size_t i = 0; i < suite.size(); ++i) {
    const auto& spec = suite[i];
    const auto paper = spark_paper_stats(spec.name);
    table.add_row({spec.name, to_string(spec.power_type),
                   format_double(rows[i].duration, 1),
                   format_double(paper.duration, 1),
                   format_double(rows[i].above * 100.0, 2) + "%",
                   format_double(paper.above_110_fraction * 100.0, 2) + "%"});
    csv.write_row({spec.name, to_string(spec.power_type),
                   format_double(rows[i].duration, 2),
                   format_double(paper.duration, 2),
                   format_double(rows[i].above, 4),
                   format_double(paper.above_110_fraction, 4)});
  }
  table.print();
  return 0;
}
