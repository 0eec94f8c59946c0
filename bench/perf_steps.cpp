/// Engine-step microbench — the tracked engine steps/s baseline.
///
/// perf_smoke rates *sweep* throughput through the PairRunner (solo
/// baselines included); this bench rates the simulation engine itself.
/// A fleet of 4,096 units or more shards its physics step over every CPU
/// the process may use (SimulationEngine's step blocks), so units10k,
/// tree10k and floor100k run their physics on several threads; pair20 and
/// units1k are one block on one thread. Five scenarios:
///
///   pair20    the perf_smoke grid's 6 fig6-style pairs (20 units each),
///             run directly through run_pair under constant, slurm and
///             dps — the manager split shows where a step's time goes
///             (constant = physics + RAPL only; slurm adds the stateless
///             decide; dps adds the Kalman/priority/readjust pipeline).
///   units1k   a synthetic 1000-unit square-wave fleet under DPS for a
///             fixed number of rounds.
///   units10k  the same at 10000 units — the structure-of-arrays layout's
///             home turf, where per-unit pointer chasing would dominate.
///   tree10k   500 groups x 20 sockets cycling the registry workloads
///             under a DPS TreeController (shard 32) whose leaf tier runs
///             on 2 threads, for the same number of rounds. No floor.
///   floor100k the perfbench fleet_tree layout (5,000 groups x 20 sockets
///             cycling the registry workloads) under the constant manager:
///             the measured physics floor at fleet scale, timed pinned to
///             one CPU and at the full affinity mask. Their ratio is the
///             sharded step's speedup. No floor.
///
/// Results land in BENCH_steps.json (override with DPS_BENCH_JSON); the
/// headline "serial_steps_per_s" is the dps pair20 rate, which CI gates
/// with DPS_PERF_MIN_STEPS_PER_S. Knobs:
///   DPS_REPEATS              completed runs per workload in pair20 [1]
///   DPS_PERF_MIN_STEPS_PER_S exit nonzero if the dps pair20 rate falls
///                            below this (default 0 = never)
///   DPS_BENCH_JSON           output path (default "BENCH_steps.json")

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/dps_manager.hpp"
#include "ctrl/tree.hpp"
#include "experiments/pair_runner.hpp"
#include "experiments/registry.hpp"
#include "managers/constant.hpp"
#include "sim/engine.hpp"
#include "util/csv.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace dps;

/// Engine steps per fleet scenario (units1k, units10k, tree10k, floor100k).
constexpr int kFleetRounds = 300;

struct Scenario {
  std::string name;
  std::string manager;
  int units = 0;
  int cpus = 1;  // CPUs the run could use
  long engine_steps = 0;
  long unit_steps = 0;
  double wall_s = 0.0;

  double steps_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(engine_steps) / wall_s : 0.0;
  }
  double unit_steps_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(unit_steps) / wall_s : 0.0;
  }
};

/// Same generous stop bound the PairRunner uses.
Seconds time_bound(const WorkloadSpec& a, const WorkloadSpec& b,
                   int repeats) {
  const Seconds longer =
      std::max(a.nominal_duration() + a.inter_run_gap,
               b.nominal_duration() + b.inter_run_gap);
  return 200.0 + 4.0 * longer * repeats;
}

/// The 6 pairs of the perf_smoke grid under one manager, timed end to end.
Scenario run_pair20(ManagerKind kind, int repeats, std::uint64_t seed) {
  const std::vector<std::string> spark = {"Kmeans", "LDA", "Sort"};
  const std::vector<std::string> npb = {"EP", "CG"};
  const PerfModel model;

  Scenario s;
  s.name = "pair20";
  s.manager = to_string(kind);
  s.units = 20;
  s.cpus = static_cast<int>(available_threads());
  const auto start = std::chrono::steady_clock::now();
  for (const auto& a_name : spark) {
    for (const auto& b_name : npb) {
      const WorkloadSpec a = workload_by_name(a_name);
      const WorkloadSpec b = workload_by_name(b_name);
      EngineConfig config;
      config.dt = 1.0;
      config.total_budget = 110.0 * 20;
      config.target_completions = repeats;
      config.max_time = time_bound(a, b, repeats);
      const auto manager = make_manager(kind);
      const auto result = run_pair(a, b, *manager, config, seed, model);
      s.engine_steps += result.steps;
      s.unit_steps += static_cast<long>(result.steps) * s.units;
    }
  }
  s.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return s;
}

/// Times a fixed number of engine rounds of `groups` under `manager`.
Scenario run_fleet(const std::string& name, const std::string& manager_name,
                   std::vector<GroupSpec> groups, PowerManager& manager,
                   int rounds, std::uint64_t seed) {
  Cluster cluster(std::move(groups));
  const int units = cluster.total_units();

  RaplSimConfig rapl_config;
  rapl_config.noise_seed = seed * 977 + 13;
  SimulatedRapl rapl(units, rapl_config);

  EngineConfig config;
  config.dt = 1.0;
  config.total_budget = 110.0 * units;
  config.target_completions = 1;  // unreachable inside the window
  config.max_time = static_cast<Seconds>(rounds);

  Scenario s;
  s.name = name;
  s.manager = manager_name;
  s.units = units;
  s.cpus = static_cast<int>(available_threads());
  const auto start = std::chrono::steady_clock::now();
  const auto result = SimulationEngine(config).run(cluster, rapl, manager);
  s.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  s.engine_steps = result.steps;
  s.unit_steps = static_cast<long>(result.steps) * units;
  return s;
}

/// A fixed number of engine rounds over a synthetic square-wave fleet:
/// groups of 20 sockets with per-group period/levels, half the fleet
/// phasing above the fair share — the overprovisioned mix DPS feeds on.
Scenario run_synthetic(const std::string& name, int units, int rounds,
                       std::uint64_t seed) {
  std::vector<GroupSpec> groups;
  const int sockets_per_group = 20;
  const int num_groups = units / sockets_per_group;
  groups.reserve(static_cast<std::size_t>(num_groups));
  for (int g = 0; g < num_groups; ++g) {
    // Long-running shapes so no group completes inside the measured
    // window: the engine always executes exactly `rounds` steps.
    const Watts high = 120.0 + 10.0 * (g % 5);
    const Watts low = 50.0 + 5.0 * (g % 7);
    const Seconds high_for = 20.0 + 2.0 * (g % 9);
    const Seconds low_for = 15.0 + 3.0 * (g % 4);
    groups.push_back(GroupSpec{
        square_wave(high_for, low_for, high, low, /*cycles=*/4000),
        sockets_per_group, seed + static_cast<std::uint64_t>(g)});
  }
  DpsManager manager;
  return run_fleet(name, "dps", std::move(groups), manager, rounds, seed);
}

/// `num_groups` groups of 20 sockets cycling the registry workloads, as
/// perfbench's fleet_tree lays out its fleet.
std::vector<GroupSpec> registry_groups(int num_groups, std::uint64_t seed) {
  std::vector<WorkloadSpec> specs;
  for (const auto& name : all_workload_names()) {
    specs.push_back(workload_by_name(name));
  }
  std::vector<GroupSpec> groups;
  groups.reserve(static_cast<std::size_t>(num_groups));
  for (int g = 0; g < num_groups; ++g) {
    groups.emplace_back(specs[static_cast<std::size_t>(g) % specs.size()], 20,
                        mix_seed(seed, static_cast<std::uint64_t>(g)));
  }
  return groups;
}

/// A fixed number of engine rounds over 500 registry groups under a DPS
/// tree with 2 leaf threads. The EP groups need thousands of steps per
/// run, so the completion target stays out of reach inside the window.
Scenario run_tree10k(int rounds, std::uint64_t seed) {
  CtrlConfig ctrl;
  ctrl.shard_size = 32;
  ctrl.leaf_jobs = 2;
  TreeController tree(ctrl);
  return run_fleet("tree10k", "dps_tree", registry_groups(500, seed), tree,
                   rounds, seed);
}

/// The 100k-unit registry fleet under the constant manager, whose decide
/// is a copy: what is left is the step's physics, RAPL and actuation.
/// Timed with the calling thread (and so the engine's pool, which inherits
/// its mask) pinned to the first CPU of the mask, then at the whole mask.
std::vector<Scenario> run_floor100k(int rounds, std::uint64_t seed) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  std::vector<Scenario> out;
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return out;
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  for (const cpu_set_t* set : {&one, &mask}) {
    if (sched_setaffinity(0, sizeof *set, set) != 0) break;
    ConstantManager constant;
    out.push_back(run_fleet("floor100k", "constant",
                            registry_groups(5000, seed), constant, rounds,
                            seed));
  }
  sched_setaffinity(0, sizeof mask, &mask);
  return out;
}

}  // namespace

int main() {
  using namespace dps;
  const int repeats = static_cast<int>(bench::int_knob("DPS_REPEATS", 1, 1));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(bench::int_knob("DPS_SEED", 42, 0, LONG_MAX));
  const double min_steps =
      bench::double_knob("DPS_PERF_MIN_STEPS_PER_S", 0.0, 0.0);
  const std::string json_path =
      env_string("DPS_BENCH_JSON", "BENCH_steps.json");

  std::printf(
      "perf_steps: engine microbench (fleets of 4,096+ units shard their "
      "physics over %u CPUs; tree10k decides on 2 leaf threads), repeats=%d, "
      "synthetic rounds=%d.\n\n",
      available_threads(), repeats, kFleetRounds);

  std::vector<Scenario> scenarios;
  for (const auto kind :
       {ManagerKind::kConstant, ManagerKind::kSlurm, ManagerKind::kDps}) {
    scenarios.push_back(run_pair20(kind, repeats, seed));
  }
  scenarios.push_back(run_synthetic("units1k", 1000, kFleetRounds, seed));
  scenarios.push_back(run_synthetic("units10k", 10000, kFleetRounds, seed));
  scenarios.push_back(run_tree10k(kFleetRounds, seed));
  const std::vector<Scenario> floor = run_floor100k(kFleetRounds, seed);
  scenarios.insert(scenarios.end(), floor.begin(), floor.end());

  CsvWriter csv(dps::bench::out_dir() + "/perf_steps.csv");
  csv.write_header({"scenario", "manager", "units", "cpus", "engine_steps",
                    "wall_s", "steps_per_s", "unit_steps_per_s"});
  for (const auto& s : scenarios) {
    std::printf("%-9s %-9s %6d units on %d CPUs: %8ld steps in %6.2f s = "
                "%9.0f steps/s (%.2fM unit-steps/s)\n",
                s.name.c_str(), s.manager.c_str(), s.units, s.cpus,
                s.engine_steps, s.wall_s, s.steps_per_s(),
                s.unit_steps_per_s() / 1e6);
    csv.write_row({s.name, s.manager, std::to_string(s.units),
                   std::to_string(s.cpus), std::to_string(s.engine_steps),
                   format_double(s.wall_s, 3),
                   format_double(s.steps_per_s(), 0),
                   format_double(s.unit_steps_per_s(), 0)});
  }
  csv.flush();

  // The sharded step's scaling at fleet scale: the floor's rate at the
  // whole mask over its rate on one CPU, and that speedup per CPU.
  double floor_speedup = 0.0;
  int floor_cpus = 0;
  if (floor.size() == 2 && floor[0].steps_per_s() > 0.0) {
    floor_speedup = floor[1].steps_per_s() / floor[0].steps_per_s();
    floor_cpus = floor[1].cpus;
    std::printf("\nfloor100k: %.2fx on %d CPUs over 1 CPU (%.0f%% per CPU)\n",
                floor_speedup, floor_cpus, 100.0 * floor_speedup / floor_cpus);
  }

  // Headline: the dps pair20 rate — the configuration both the golden
  // experiments and perf_smoke spend their time in.
  double headline = 0.0;
  for (const auto& s : scenarios) {
    if (s.name == "pair20" && s.manager == "dps") headline = s.steps_per_s();
  }

  {
    std::ofstream json(json_path, std::ios::trunc);
    json << "{\n  \"bench\": \"perf_steps\",\n  \"schema_version\": 2,\n"
         << "  \"repeats\": " << repeats
         << ",\n  \"rounds\": " << kFleetRounds << ",\n  \"scenarios\": [\n";
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const auto& s = scenarios[i];
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "    {\"name\": \"%s\", \"manager\": \"%s\", \"units\": "
                    "%d, \"cpus\": %d, \"engine_steps\": %ld, \"wall_s\": "
                    "%.3f, \"steps_per_s\": %.0f, \"unit_steps_per_s\": "
                    "%.0f}%s\n",
                    s.name.c_str(), s.manager.c_str(), s.units, s.cpus,
                    s.engine_steps, s.wall_s, s.steps_per_s(),
                    s.unit_steps_per_s(),
                    i + 1 < scenarios.size() ? "," : "");
      json << buf;
    }
    char tail[256];
    std::snprintf(tail, sizeof(tail),
                  "  ],\n  \"floor100k_scaling\": {\"cpus\": %d, "
                  "\"speedup\": %.2f, \"efficiency\": %.2f},\n"
                  "  \"serial_steps_per_s\": %.0f\n}\n",
                  floor_cpus, floor_speedup,
                  floor_cpus > 0 ? floor_speedup / floor_cpus : 0.0, headline);
    json << tail;
    if (!json) {
      std::fprintf(stderr, "perf_steps: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
  }
  std::printf("\nwrote %s\n", json_path.c_str());

  if (min_steps > 0.0 && headline < min_steps) {
    std::fprintf(stderr,
                 "perf_steps: FAIL — %.0f steps/s below required %.0f\n",
                 headline, min_steps);
    return 1;
  }
  return 0;
}
