#pragma once

/// Shared plumbing for the figure/table bench binaries. Every bench accepts
/// the same environment knobs so quick runs and paper-scale runs share one
/// binary:
///   DPS_REPEATS  completed runs per workload per pair   (default 2;
///                the paper uses >= 10, and ExperimentParams' library
///                default of 3 applies only to direct API callers — the
///                benches always come through this knob)
///   DPS_SEED     base seed for workload jitter           (default 42)
///   DPS_OUT      directory for CSV dumps                 (default "bench_out")
///   DPS_JOBS     sweep worker threads                    (default: hardware
///                concurrency; DPS_JOBS=1 reproduces the serial path).
///                Output is byte-identical at any value — see
///                docs/performance.md for the determinism contract.

#include <filesystem>
#include <string>
#include <vector>

#include "experiments/pair_runner.hpp"
#include "experiments/sweep.hpp"
#include "metrics/metrics.hpp"
#include "sim/engine.hpp"
#include "util/env.hpp"

namespace dps::bench {

inline ExperimentParams params_from_env() {
  ExperimentParams params;
  params.repeats = static_cast<int>(env_int("DPS_REPEATS", 2));
  params.seed = static_cast<std::uint64_t>(env_int("DPS_SEED", 42));
  return params;
}

/// Creates (if needed) and returns the CSV output directory.
inline std::string out_dir() {
  const std::string dir = env_string("DPS_OUT", "bench_out");
  std::filesystem::create_directories(dir);
  return dir;
}

/// One finished engine run and each group's harmonic-mean completion
/// latency, in group order.
struct GroupsRun {
  EngineResult result;
  std::vector<double> hmean;
};

inline GroupsRun with_hmeans(EngineResult result) {
  GroupsRun run;
  for (const auto& group : result.completions) {
    std::vector<double> latencies;
    for (const auto& c : group) latencies.push_back(c.latency());
    run.hmean.push_back(hmean_latency(latencies));
  }
  run.result = std::move(result);
  return run;
}

/// Runs `manager` through SimulationEngine on a fresh cluster of `groups`
/// (each group seeds its own workload jitter) and the default simulated
/// RAPL, under `config`.
inline GroupsRun run_groups(std::vector<GroupSpec> groups,
                            PowerManager& manager,
                            const EngineConfig& config) {
  Cluster cluster(std::move(groups));
  SimulatedRapl rapl(cluster.total_units());
  return with_hmeans(SimulationEngine(config).run(cluster, rapl, manager));
}

inline std::string percent(double ratio, int precision = 1) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.*f%%", precision,
                (ratio - 1.0) * 100.0);
  return buf;
}

}  // namespace dps::bench
