/// Extension experiment: manager resilience under escalating fault rates.
/// The paper's evaluation only disturbs the system through clean budget
/// changes; this bench turns on the src/faults/ subsystem — node crashes,
/// wedged sensors, garbage readings, stuck RAPL actuators, facility budget
/// sags — at 0x / 0.5x / 1x / 2x of a base rate mix and co-runs Kmeans+GMM
/// under each manager against the *identical* deterministic fault plan.
///
/// Reports, per (fault level, manager): mean normalized performance (pair
/// hmean of speedups vs the fault-free constant allocation), completions
/// lost vs the manager's own fault-free twin, and the engine's resilience
/// telemetry (faulted time, watt-seconds of overshoot while faulted, mean
/// recovery time, dropped cap writes). The claim under test: a stateful
/// manager that *evicts* unresponsive units and re-admits them on recovery
/// degrades more gracefully than the stateless baseline.

#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "experiments/pair_runner.hpp"
#include "experiments/registry.hpp"
#include "faults/fault_plan.hpp"
#include "faults/resilience.hpp"
#include "managers/constant.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace dps;

constexpr int kUnits = 20;
constexpr Watts kBudgetPerSocket = 110.0;

/// Base fault mix, in expected events per 1000 s cluster-wide. The sweep
/// scales all five rates together.
FaultPlanConfig base_faults(std::uint64_t seed) {
  FaultPlanConfig config;
  config.seed = seed;
  config.horizon = 100000.0;
  config.crash_rate = 1.2;
  config.sensor_dropout_rate = 0.8;
  config.sensor_garbage_rate = 0.8;
  config.cap_stuck_rate = 0.8;
  config.budget_sag_rate = 0.4;
  return config;
}

std::shared_ptr<const FaultPlan> plan_at_level(double level,
                                               std::uint64_t seed) {
  if (level <= 0.0) return nullptr;
  auto config = base_faults(seed);
  config.crash_rate *= level;
  config.sensor_dropout_rate *= level;
  config.sensor_garbage_rate *= level;
  config.cap_stuck_rate *= level;
  config.budget_sag_rate *= level;
  return std::make_shared<FaultPlan>(FaultPlan::generate(config, kUnits));
}

using Run = dps::bench::GroupsRun;

Run run_level(PowerManager& manager, const WorkloadSpec& a,
              const WorkloadSpec& b, double level, int repeats,
              std::uint64_t seed) {
  EngineConfig config;
  config.total_budget = kBudgetPerSocket * kUnits;
  config.target_completions = repeats;
  config.max_time = 100000.0;
  config.fault_plan = plan_at_level(level, seed);
  return dps::bench::with_hmeans(run_pair(a, b, manager, config, seed));
}

/// Completed runs per group.
std::vector<std::size_t> completed(const EngineResult& result) {
  std::vector<std::size_t> counts;
  for (const auto& group : result.completions) counts.push_back(group.size());
  return counts;
}

double mean_recovery(const EngineResult& result) {
  if (result.fault_recovery_times.empty()) return 0.0;
  return std::accumulate(result.fault_recovery_times.begin(),
                         result.fault_recovery_times.end(), 0.0) /
         static_cast<double>(result.fault_recovery_times.size());
}

}  // namespace

int main() {
  using namespace dps;
  const auto params = dps::bench::params_from_env();
  const int repeats = params.repeats;
  const std::uint64_t seed = params.seed;

  const auto a = workload_by_name("Kmeans");
  const auto b = workload_by_name("GMM");
  const std::vector<double> levels = {0.0, 0.5, 1.0, 2.0};

  std::printf(
      "Extension: resilience under escalating fault rates (Kmeans + GMM,\n"
      "%d sockets, %.0f W/socket budget). Fault mix at 1x: crashes 1.2,\n"
      "sensor dropout 0.8, sensor garbage 0.8, stuck caps 0.8, budget sags\n"
      "0.4 per 1000 s; all managers face the identical deterministic plan.\n\n",
      kUnits, kBudgetPerSocket);

  CsvWriter csv(dps::bench::out_dir() + "/ext_faults.csv");
  csv.write_header({"fault_level", "manager", "hmean_a", "hmean_b",
                    "mean_norm_perf", "completions_lost", "faults_injected",
                    "faulted_time_s", "faulted_overshoot_ws",
                    "mean_recovery_s", "dropped_cap_writes", "peak_cap_sum"});

  Table table({"level", "manager", "norm perf", "lost runs", "faults",
               "faulted [s]", "overshoot [Ws]", "recovery [s]"});

  struct Entry {
    ManagerKind kind;
    Run clean;  // the manager's own fault-free twin (completions-lost ref)
  };
  std::vector<Entry> managers = {{ManagerKind::kConstant, {}},
                                 {ManagerKind::kSlurm, {}},
                                 {ManagerKind::kDps, {}}};

  // Every (level, manager) run — plus the fault-free constant reference —
  // faces its own deterministic fault plan and manager instance, so the
  // whole grid fans out as one sweep; the serial pass below then replays
  // the original reporting order over the collected runs.
  ConstantManager constant_baseline;
  const Run clean_constant =
      run_level(constant_baseline, a, b, 0.0, repeats, seed);
  const auto runs =
      sweep_ordered(levels.size() * managers.size(), [&](std::size_t i) {
        const double level = levels[i / managers.size()];
        const auto manager =
            make_manager(managers[i % managers.size()].kind);
        return run_level(*manager, a, b, level, repeats, seed);
      });

  double dps_norm_at_faults = 0.0, slurm_norm_at_faults = 0.0;
  int faulted_levels = 0;
  for (std::size_t li = 0; li < levels.size(); ++li) {
    const double level = levels[li];
    for (std::size_t mi = 0; mi < managers.size(); ++mi) {
      auto& entry = managers[mi];
      const Run& run = runs[li * managers.size() + mi];
      if (level <= 0.0) entry.clean = run;

      // Normalized performance of each workload vs the fault-free constant
      // allocation; their harmonic mean is the bench's headline number.
      const double norm = pair_hmean(clean_constant.hmean[0] / run.hmean[0],
                                     clean_constant.hmean[1] / run.hmean[1]);
      const int lost = completions_lost(completed(run.result),
                                        completed(entry.clean.result));
      if (level > 0.0 && entry.kind == ManagerKind::kDps) {
        dps_norm_at_faults += norm;
        ++faulted_levels;
      }
      if (level > 0.0 && entry.kind == ManagerKind::kSlurm) {
        slurm_norm_at_faults += norm;
      }

      const char* name = to_string(entry.kind);
      table.add_row({format_double(level, 1), name,
                     format_double(norm, 3), std::to_string(lost),
                     std::to_string(run.result.faults_injected),
                     format_double(run.result.faulted_time, 0),
                     format_double(run.result.faulted_overshoot_ws, 1),
                     format_double(mean_recovery(run.result), 1)});
      csv.write_row(
          {format_double(level, 2), name, format_double(run.hmean[0], 2),
           format_double(run.hmean[1], 2), format_double(norm, 4),
           std::to_string(lost), std::to_string(run.result.faults_injected),
           format_double(run.result.faulted_time, 1),
           format_double(run.result.faulted_overshoot_ws, 2),
           format_double(mean_recovery(run.result), 2),
           std::to_string(run.result.dropped_cap_writes),
           format_double(run.result.peak_cap_sum, 1)});
    }
  }
  table.print();

  const double dps_mean = dps_norm_at_faults / faulted_levels;
  const double slurm_mean = slurm_norm_at_faults / faulted_levels;
  std::printf(
      "\nMean normalized performance over nonzero fault levels: dps %.3f vs\n"
      "slurm %.3f — the stateful manager must win (%s). Eviction reclaims a\n"
      "dead unit's watts for the survivors; the stateless baseline can only\n"
      "squeeze the dark unit's cap, stranding budget every decision round.\n",
      dps_mean, slurm_mean, dps_mean > slurm_mean ? "it does" : "IT DOES NOT");
  return dps_mean > slurm_mean ? 0 : 1;
}
