/// Extension experiment: decentralized power management. The paper's
/// Related Work cites Penelope (peer-to-peer power management, ref [43]);
/// this bench runs our agent-swarm variant — every unit manages its own
/// budget slice and trades with one peer per exchange round, no central
/// coordinator — against centralized DPS and SLURM on contended pairs,
/// and sweeps the number of exchange rounds per decision period.
///
/// Expected: with a couple of exchange rounds per second the swarm lands
/// between SLURM and centralized DPS (budget diffuses in O(n/rounds)
/// periods instead of instantly), and conservation keeps the budget exact
/// without anyone ever computing a global sum.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/dps_manager.hpp"
#include "experiments/registry.hpp"
#include "managers/constant.hpp"
#include "managers/slurm_stateless.hpp"
#include "p2p/p2p_manager.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace dps;

double pair_gain(PowerManager& manager, const WorkloadSpec& a,
                 const WorkloadSpec& b, double base_a, double base_b,
                 int repeats) {
  EngineConfig config;
  config.total_budget = 110.0 * 20;
  config.target_completions = repeats;
  config.max_time = 60000.0;
  const auto hmean = dps::bench::run_groups(
      {GroupSpec{a, 10, 61}, GroupSpec{b, 10, 62}}, manager, config).hmean;
  return pair_hmean(base_a / hmean[0], base_b / hmean[1]);
}

double solo_baseline(const WorkloadSpec& spec, std::uint64_t seed,
                     int repeats) {
  EngineConfig config;
  config.total_budget = 1100.0;
  config.target_completions = repeats;
  config.max_time = 60000.0;
  ConstantManager constant;
  return dps::bench::run_groups({GroupSpec{spec, 10, seed}}, constant, config)
      .hmean[0];
}

}  // namespace

int main() {
  using namespace dps;
  const int repeats = dps::bench::params_from_env().repeats;

  const auto a = workload_by_name("Kmeans");
  const auto b = workload_by_name("GMM");
  const double base_a = solo_baseline(a, 61, repeats);
  const double base_b = solo_baseline(b, 62, repeats);

  std::printf(
      "Extension: peer-to-peer agent swarm vs centralized managers\n"
      "(Kmeans + GMM, pair hmean gain vs constant allocation).\n\n");

  CsvWriter csv(dps::bench::out_dir() + "/ext_p2p.csv");
  csv.write_header({"manager", "pair_gain"});

  Table table({"manager", "pair gain"});
  SlurmStatelessManager slurm;
  const double slurm_gain = pair_gain(slurm, a, b, base_a, base_b, repeats);
  table.add_row({"slurm (central)", dps::bench::percent(slurm_gain)});
  csv.write_row({"slurm", format_double(slurm_gain, 4)});

  for (const int rounds : {1, 2, 4, 8}) {
    for (const auto topology :
         {ExchangeTopology::kRing, ExchangeTopology::kRandomPairs}) {
      P2pManager p2p(topology, rounds);
      const double gain = pair_gain(p2p, a, b, base_a, base_b, repeats);
      const std::string label =
          std::string("p2p ") +
          (topology == ExchangeTopology::kRing ? "ring" : "random") + " x" +
          std::to_string(rounds);
      table.add_row({label, dps::bench::percent(gain)});
      csv.write_row({label, format_double(gain, 4)});
    }
  }

  DpsManager dps;
  const double dps_gain = pair_gain(dps, a, b, base_a, base_b, repeats);
  table.add_row({"dps (central)", dps::bench::percent(dps_gain)});
  csv.write_row({"dps", format_double(dps_gain, 4)});
  table.print();

  std::printf(
      "\nExpected: the swarm improves with exchange rounds and approaches\n"
      "centralized DPS, without any node ever seeing the global state.\n");
  return 0;
}
