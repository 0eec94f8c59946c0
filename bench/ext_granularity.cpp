/// Extension experiment: power-capping granularity. The paper manages at
/// socket granularity and notes (Section 3) that different machines
/// support different scales — cores, sockets, or whole nodes. Here DPS
/// manages the same 20-socket system at three granularities: per socket
/// (20 units), per dual-socket node (10 units), and per 4-socket chassis
/// (5 units). Each run is a two-level TreeController: the studied manager
/// at the root sees one unit per node, and a ProportionalSplitLeaf per node
/// splits the node's cap across its sockets as node firmware would.
///
/// Expected shape: coarser units blur the per-socket dynamics (a node's
/// aggregated trace is smoother than its sockets'), so the manager's
/// fairness and gains degrade gently with granularity — and management at
/// any granularity still beats constant allocation.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/dps_manager.hpp"
#include "ctrl/tree.hpp"
#include "experiments/registry.hpp"
#include "managers/constant.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace dps;

/// Each group's harmonic-mean latency when the manager `manager` builds
/// caps units of `sockets_per_unit` sockets.
std::vector<double> run_at_granularity(ManagerFactory manager,
                                       int sockets_per_unit, int repeats) {
  CtrlConfig ctrl;
  ctrl.shard_size = sockets_per_unit;
  ctrl.max_levels = 2;
  TreeController tree(
      ctrl, [] { return std::make_unique<ProportionalSplitLeaf>(); },
      std::move(manager));
  EngineConfig config;
  config.total_budget = 110.0 * 20;
  config.target_completions = repeats;
  config.max_time = 40000.0;
  return dps::bench::run_groups({GroupSpec{workload_by_name("Kmeans"), 10, 41},
                                 GroupSpec{workload_by_name("GMM"), 10, 42}},
                                tree, config)
      .hmean;
}

}  // namespace

int main() {
  using namespace dps;
  const int repeats = dps::bench::params_from_env().repeats;

  std::printf(
      "Extension: capping granularity — DPS managing 20 sockets as 20 / 10 "
      "/ 5 units\n(Kmeans + GMM; gains vs constant allocation at the same "
      "granularity).\n\n");

  // Task 0 is the constant baseline, tasks 1..3 the DPS runs at socket /
  // node / chassis granularity. Each task owns a private manager, so the
  // sweep is task-pure and the CSV is byte-identical at any DPS_JOBS.
  const std::vector<int> spus = {1, 2, 4};
  const auto results = sweep_ordered(spus.size() + 1, [&](std::size_t i) {
    if (i == 0) {
      return run_at_granularity(
          [] { return std::make_unique<ConstantManager>(); }, 1, repeats);
    }
    return run_at_granularity([] { return std::make_unique<DpsManager>(); },
                              spus[i - 1], repeats);
  });
  const std::vector<double>& base = results[0];

  CsvWriter csv(dps::bench::out_dir() + "/ext_granularity.csv");
  csv.write_header({"sockets_per_unit", "units", "pair_gain"});

  Table table({"granularity", "units", "Kmeans gain", "GMM gain",
               "pair gain"});
  for (std::size_t i = 0; i < spus.size(); ++i) {
    const int spu = spus[i];
    const std::vector<double>& result = results[i + 1];
    const double gain_a = base[0] / result[0];
    const double gain_b = base[1] / result[1];
    const double pair = pair_hmean(gain_a, gain_b);
    table.add_row({spu == 1 ? "socket" : (spu == 2 ? "node" : "chassis"),
                   std::to_string(20 / spu), dps::bench::percent(gain_a),
                   dps::bench::percent(gain_b), dps::bench::percent(pair)});
    csv.write_row({std::to_string(spu), std::to_string(20 / spu),
                   format_double(pair, 4)});
  }
  table.print();

  std::printf(
      "\nExpected: positive gains at every granularity, degrading gently as\n"
      "units coarsen (aggregation smooths away the per-socket dynamics DPS\n"
      "feeds on).\n");
  return 0;
}
