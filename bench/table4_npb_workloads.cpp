/// Table 4 — NAS Parallel Benchmark characterization: mean latency under
/// the constant 110 W/socket allocation, next to the paper's numbers, plus
/// the measured share of time above 110 W (all NPB workloads are above 99 %
/// in the paper).

#include <cstdio>

#include "bench_common.hpp"
#include "managers/constant.hpp"
#include "sim/engine.hpp"
#include "workloads/npb_suite.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace dps;

double measured_fraction_above(const WorkloadSpec& spec, Watts threshold) {
  Cluster cluster({GroupSpec{spec, 10, 23}});
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
      "Table 4 reproduction: NPB workloads under constant 110 W caps.\n\n");

  Table table({"workload", "duration [s]", "(paper [s])", "above 110W",
               "(paper)"});
  CsvWriter csv(dps::bench::out_dir() + "/table4_npb.csv");
  csv.write_header(
      {"workload", "duration_s", "paper_duration_s", "above_110_frac"});

  const auto suite = npb_suite();
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
    const auto paper = npb_paper_stats(spec.name);
    table.add_row({spec.name, format_double(rows[i].duration, 1),
                   format_double(paper.duration, 1),
                   format_double(rows[i].above * 100.0, 1) + "%",
                   format_double(paper.above_110_fraction * 100.0, 1) + "%"});
    csv.write_row({spec.name, format_double(rows[i].duration, 2),
                   format_double(paper.duration, 2),
                   format_double(rows[i].above, 4)});
  }
  table.print();
  std::printf("\nAll NPB workloads draw high power essentially all the time\n"
              "(>99%% above 110 W in the paper), unlike the phased Spark "
              "workloads.\n");
  return 0;
}
