/// Extension experiment: power-aware job scheduling (src/sched/). The
/// paper's evaluation pins two static clusters to the machine; this bench
/// opens the system up to an on-line job stream — Poisson arrivals drawing
/// from a Spark/NPB mix, each job asking for a few power-capping units —
/// and sweeps arrival intensity under every (queueing policy x power
/// manager) combination on the same deterministic stream.
///
/// Reports, per (arrival rate, policy, manager): completed jobs, mean
/// wait, mean bounded slowdown, machine utilization, power throttle
/// stalls, and the engine's budget telemetry. Claims under test: EASY
/// backfill beats FCFS on mean bounded slowdown at the congested rate
/// (under the DPS manager), and the manager keeps the requested cap sum
/// within the cluster budget throughout.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "experiments/pair_runner.hpp"
#include "experiments/registry.hpp"
#include "sched/job.hpp"
#include "sim/engine.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace dps;

constexpr int kUnits = 20;
constexpr Watts kBudgetPerSocket = 110.0;

EngineResult run_stream(PowerManager& manager, sched::SchedPolicy policy,
                        double rate, int jobs, std::uint64_t seed) {
  sched::JobScheduleConfig js;
  js.policy = policy;
  js.seed = seed;
  js.arrival_rate_per_1000s = rate;
  js.job_count = jobs;
  js.workload_mix = {"Kmeans", "GMM", "Bayes", "EP"};
  js.min_units = 2;
  js.max_units = 8;
  js.resolve = [](const std::string& name) { return workload_by_name(name); };

  EngineConfig config;
  config.total_budget = kBudgetPerSocket * kUnits;
  config.max_time = 400000.0;
  config.job_schedule = js;
  return run_jobs(manager, config, kUnits);
}

}  // namespace

int main() {
  using namespace dps;
  const auto params = dps::bench::params_from_env();
  const std::uint64_t seed = params.seed;
  // DPS_REPEATS scales the stream length so quick runs and paper-scale
  // runs share the binary.
  const int jobs = 20 * params.repeats;

  // Jobs average ~5 units for a few hundred seconds, so the 20-unit
  // machine saturates around ~12 jobs / 1000 s: the sweep spans a lightly
  // loaded, a busy, and a congested regime.
  const std::vector<double> rates = {2.0, 8.0, 20.0};
  const std::vector<sched::SchedPolicy> policies = {
      sched::SchedPolicy::kFcfs, sched::SchedPolicy::kEasyBackfill,
      sched::SchedPolicy::kPowerAware};
  const std::vector<ManagerKind> managers = {
      ManagerKind::kConstant, ManagerKind::kSlurm, ManagerKind::kDps};

  std::printf(
      "Extension: job scheduling under a cluster power budget (%d units,\n"
      "%.0f W/unit, %d-job Poisson streams of Kmeans/GMM/Bayes/EP asking\n"
      "for 2-8 units). Every cell replays the identical arrival stream.\n\n",
      kUnits, kBudgetPerSocket, jobs);

  CsvWriter csv(dps::bench::out_dir() + "/ext_sched.csv");
  csv.write_header({"arrival_rate", "policy", "manager", "completed",
                    "mean_wait_s", "max_wait_s", "mean_bounded_slowdown",
                    "utilization", "throttle_stalls", "shrunk", "elapsed_s",
                    "timed_out", "peak_cap_sum", "budget"});

  Table table({"rate", "policy", "manager", "done", "wait [s]", "slowdown",
               "util", "stalls", "elapsed [s]"});

  const Watts budget = kBudgetPerSocket * kUnits;
  double fcfs_slowdown_dps = 0.0, backfill_slowdown_dps = 0.0;
  bool within_budget = true;
  bool all_completed = true;

  for (const double rate : rates) {
    for (const auto policy : policies) {
      for (const auto kind : managers) {
        const std::string name = to_string(kind);
        const auto manager = make_manager(kind);
        const EngineResult result =
            run_stream(*manager, policy, rate, jobs, seed);
        const auto& s = result.sched;

        if (result.peak_cap_sum > budget + 1e-6) within_budget = false;
        if (result.timed_out || s.completed + s.abandoned < s.submitted) {
          all_completed = false;
        }
        if (rate == rates.back() && kind == ManagerKind::kDps) {
          if (policy == sched::SchedPolicy::kFcfs) {
            fcfs_slowdown_dps = s.mean_bounded_slowdown;
          }
          if (policy == sched::SchedPolicy::kEasyBackfill) {
            backfill_slowdown_dps = s.mean_bounded_slowdown;
          }
        }

        table.add_row({format_double(rate, 0), sched::to_string(policy), name,
                       std::to_string(s.completed),
                       format_double(s.mean_wait, 0),
                       format_double(s.mean_bounded_slowdown, 2),
                       format_double(s.mean_utilization, 3),
                       std::to_string(s.throttle_stalls),
                       format_double(result.elapsed, 0)});
        csv.write_row({format_double(rate, 1), sched::to_string(policy), name,
                       std::to_string(s.completed),
                       format_double(s.mean_wait, 1),
                       format_double(s.max_wait, 1),
                       format_double(s.mean_bounded_slowdown, 3),
                       format_double(s.mean_utilization, 4),
                       std::to_string(s.throttle_stalls),
                       std::to_string(s.shrunk),
                       format_double(result.elapsed, 0),
                       result.timed_out ? "1" : "0",
                       format_double(result.peak_cap_sum, 1),
                       format_double(budget, 0)});
      }
    }
  }
  table.print();

  const bool backfill_wins = backfill_slowdown_dps < fcfs_slowdown_dps;
  std::printf(
      "\nCongested rate (%.0f / 1000 s) under dps: mean bounded slowdown\n"
      "fcfs %.2f vs backfill %.2f — backfill must win (%s). Budget held\n"
      "throughout: %s. All streams drained before max_time: %s.\n",
      rates.back(), fcfs_slowdown_dps, backfill_slowdown_dps,
      backfill_wins ? "it does" : "IT DOES NOT",
      within_budget ? "yes" : "NO", all_completed ? "yes" : "NO");
  return backfill_wins && within_budget && all_completed ? 0 : 1;
}
