/// Trace explorer: co-runs any two workloads under any manager, dumps the
/// full per-socket telemetry (true power, measured power, cap, demand) to
/// CSV, and prints an ASCII timeline of one socket per cluster — the
/// quickest way to *see* a manager's behaviour (e.g. SLURM starving a
/// phased workload vs DPS equalizing).
///
/// Usage: trace_explorer [workloadA] [workloadB] [manager] [csv_path]
///   workloads: any Table 2 / Table 4 name        (default: LDA EP)
///   manager:   constant | slurm | oracle | dps | feedback | p2p
///              (default: dps)

#include <algorithm>
#include <cstdio>
#include <string>

#include "experiments/pair_runner.hpp"
#include "experiments/registry.hpp"
#include "sim/engine.hpp"

namespace {

using namespace dps;

/// One character per bucket: power rendered as a 0-9 level of the TDP.
std::string sparkline(const std::vector<TraceSample>& series,
                      double value_of(const TraceSample&), int buckets) {
  std::string line;
  if (series.empty()) return line;
  const std::size_t per_bucket =
      std::max<std::size_t>(1, series.size() / static_cast<std::size_t>(buckets));
  for (std::size_t i = 0; i < series.size(); i += per_bucket) {
    double sum = 0.0;
    std::size_t count = 0;
    for (std::size_t j = i; j < std::min(series.size(), i + per_bucket); ++j) {
      sum += value_of(series[j]);
      ++count;
    }
    const double mean = sum / static_cast<double>(count);
    const int level =
        std::clamp(static_cast<int>(mean / 165.0 * 9.0), 0, 9);
    line += static_cast<char>('0' + level);
  }
  return line;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dps;
  const std::string name_a = argc > 1 ? argv[1] : "LDA";
  const std::string name_b = argc > 2 ? argv[2] : "EP";
  const std::string manager_name = argc > 3 ? argv[3] : "dps";
  const std::string csv_path =
      argc > 4 ? argv[4] : "trace_" + name_a + "_" + name_b + ".csv";

  EngineConfig config;
  config.target_completions = 1;
  config.record_trace = true;
  config.max_time = 30000.0;

  const auto workload_a = workload_by_name(name_a);
  const auto workload_b = workload_by_name(name_b);

  // The oracle needs the cluster before the engine runs; build manually.
  Cluster cluster({GroupSpec{workload_a, 10, 11},
                   GroupSpec{workload_b, 10, 12}});
  SimulatedRapl rapl(cluster.total_units());

  ManagerKind kind = ManagerKind::kDps;  // an unknown name runs DPS
  manager_kind_from_string(manager_name, kind);
  const auto manager = make_manager(
      kind, {}, slurm_plugin_defaults(),
      [&cluster](std::span<Watts> out) { cluster.true_demands(out); });

  const auto result = SimulationEngine(config).run(cluster, rapl, *manager);
  result.trace->write_csv(csv_path);

  std::printf("%s + %s under %s: %.0f s simulated, runs %zu/%zu\n\n",
              name_a.c_str(), name_b.c_str(), manager->name().data(),
              result.elapsed, result.completions[0].size(),
              result.completions[1].size());

  const auto demand = [](const TraceSample& s) { return s.demand; };
  const auto power = [](const TraceSample& s) { return s.true_power; };
  const auto cap = [](const TraceSample& s) { return s.cap; };
  std::printf("socket 0 (%s):\n  demand %s\n  power  %s\n  cap    %s\n\n",
              name_a.c_str(),
              sparkline(result.trace->series(0), demand, 72).c_str(),
              sparkline(result.trace->series(0), power, 72).c_str(),
              sparkline(result.trace->series(0), cap, 72).c_str());
  std::printf("socket 10 (%s):\n  demand %s\n  power  %s\n  cap    %s\n\n",
              name_b.c_str(),
              sparkline(result.trace->series(10), demand, 72).c_str(),
              sparkline(result.trace->series(10), power, 72).c_str(),
              sparkline(result.trace->series(10), cap, 72).c_str());
  std::printf("(each char is a time bucket; 0-9 scales 0-165 W)\n"
              "full telemetry written to %s\n", csv_path.c_str());
  return 0;
}
