/// Extension experiment: the Argo-style two-level hierarchy from the
/// paper's Related Work (refs [7-9]) against flat SLURM and DPS. Two
/// enclave layouts are tested on Kmeans + GMM:
///   aligned    — enclave boundaries coincide with the two clusters, so
///                the global proportional re-split does the cross-cluster
///                shifting and locals only polish;
///   misaligned — enclaves of 4 cut across the cluster boundary, forcing
///                the global level to serve mixed demand.
///
/// Expected: hierarchical beats flat SLURM when aligned (the global level
/// is demand-proportional, which stateless MIMD is not) but degrades when
/// misaligned; DPS stays on top in both cases.
///
/// The hierarchy is a two-level TreeController (src/ctrl/): enclaves are
/// its shards, ProportionalShareRoot splits the budget across them and a
/// stateless MIMD manager allocates each enclave's share to its units.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/dps_manager.hpp"
#include "ctrl/tree.hpp"
#include "experiments/registry.hpp"
#include "managers/constant.hpp"
#include "managers/slurm_stateless.hpp"
#include "metrics/metrics.hpp"
#include "sim/engine.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace dps;

double pair_gain(PowerManager& manager, const WorkloadSpec& a,
                 const WorkloadSpec& b, double base_a, double base_b,
                 int repeats) {
  Cluster cluster({GroupSpec{a, 10, 71}, GroupSpec{b, 10, 72}});
  SimulatedRapl rapl(cluster.total_units());
  EngineConfig config;
  config.total_budget = 110.0 * cluster.total_units();
  config.target_completions = repeats;
  config.max_time = 60000.0;
  const auto result = SimulationEngine(config).run(cluster, rapl, manager);
  std::vector<double> lat_a, lat_b;
  for (const auto& c : result.completions[0]) lat_a.push_back(c.latency());
  for (const auto& c : result.completions[1]) lat_b.push_back(c.latency());
  return pair_hmean(base_a / hmean_latency(lat_a),
                    base_b / hmean_latency(lat_b));
}

/// The Argo-style two-level manager over enclaves of `enclave` units.
std::unique_ptr<PowerManager> two_level(int enclave) {
  CtrlConfig config;
  config.shard_size = enclave;
  config.max_levels = 2;
  return std::make_unique<TreeController>(
      config,
      [] { return std::make_unique<SlurmStatelessManager>(MimdConfig{}); },
      [] { return std::make_unique<ProportionalShareRoot>(); });
}

double solo_baseline(const WorkloadSpec& spec, std::uint64_t seed,
                     int repeats) {
  Cluster cluster({GroupSpec{spec, 10, seed}});
  SimulatedRapl rapl(10);
  EngineConfig config;
  config.total_budget = 1100.0;
  config.target_completions = repeats;
  config.max_time = 60000.0;
  ConstantManager constant;
  const auto result = SimulationEngine(config).run(cluster, rapl, constant);
  std::vector<double> latencies;
  for (const auto& c : result.completions[0]) {
    latencies.push_back(c.latency());
  }
  return hmean_latency(latencies);
}

}  // namespace

int main() {
  using namespace dps;
  const int repeats = dps::bench::params_from_env().repeats;

  const auto a = workload_by_name("Kmeans");
  const auto b = workload_by_name("GMM");

  // The two solo baselines are independent — one sweep task each.
  const auto bases = sweep_ordered(2, [&](std::size_t i) {
    return i == 0 ? solo_baseline(a, 71, repeats)
                  : solo_baseline(b, 72, repeats);
  });
  const double base_a = bases[0];
  const double base_b = bases[1];

  std::printf(
      "Extension: Argo-style two-level hierarchy vs flat managers\n"
      "(Kmeans + GMM, pair hmean gain vs constant allocation).\n\n");

  // Each task owns a private manager instance (managers are stateful), so
  // the sweep is task-pure and the CSV below is byte-identical at any
  // DPS_JOBS.
  struct Run {
    const char* label;
    std::unique_ptr<PowerManager> (*make)();
  };
  const std::vector<Run> runs = {
      {"slurm (flat)",
       []() -> std::unique_ptr<PowerManager> {
         return std::make_unique<SlurmStatelessManager>();
       }},
      {"hierarchical (aligned, 2x10)",
       []() -> std::unique_ptr<PowerManager> {
         return two_level(10);  // enclaves == the two clusters
       }},
      {"hierarchical (misaligned, 5x4)",
       []() -> std::unique_ptr<PowerManager> {
         return two_level(4);  // 5 enclaves across clusters
       }},
      {"dps (flat)",
       []() -> std::unique_ptr<PowerManager> {
         return std::make_unique<DpsManager>();
       }},
  };

  const auto gains = sweep_ordered(runs.size(), [&](std::size_t i) {
    const auto manager = runs[i].make();
    return pair_gain(*manager, a, b, base_a, base_b, repeats);
  });

  CsvWriter csv(dps::bench::out_dir() + "/ext_hierarchical.csv");
  csv.write_header({"manager", "pair_gain"});
  Table table({"manager", "pair gain"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    table.add_row({runs[i].label, dps::bench::percent(gains[i])});
    csv.write_row({runs[i].label, format_double(gains[i], 4)});
  }
  table.print();

  std::printf(
      "\nExpected: aligned hierarchy > flat SLURM (its global level is\n"
      "demand-proportional); misalignment costs it; DPS leads both.\n");
  return 0;
}
