/// Extension experiment: runtime budget changes — the oversubscribed
/// data-center scenario behind the paper's Google citation (ASPLOS '20
/// priority-aware capping). Mid-run, the facility cuts the cluster budget
/// from 110 to 85 W/socket for a while, then restores it. Every manager
/// must honour the new budget within one decision step (no sustained
/// overshoot) and recover performance afterwards.
///
/// Reports, per manager: pair hmean gain (vs the constant allocation under
/// the same schedule), fairness, and the overshoot statistics the engine
/// records.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/dps_manager.hpp"
#include "experiments/registry.hpp"
#include "managers/constant.hpp"
#include "managers/feedback.hpp"
#include "managers/slurm_stateless.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace dps;

dps::bench::GroupsRun run_with_schedule(PowerManager& manager,
                                        const WorkloadSpec& a,
                                        const WorkloadSpec& b, int repeats) {
  EngineConfig config;
  config.total_budget = 110.0 * 20;
  config.target_completions = repeats;
  config.max_time = 100000.0;
  // Emergency window: drop to 85 W/socket for 600 s, then restore.
  config.budget_schedule = {{600.0, 85.0 * 20}, {1200.0, 110.0 * 20}};
  return dps::bench::run_groups({GroupSpec{a, 10, 21}, GroupSpec{b, 10, 22}},
                                manager, config);
}

}  // namespace

int main() {
  using namespace dps;
  const int repeats =
      static_cast<int>(dps::bench::params_from_env().repeats);

  const auto a = workload_by_name("Kmeans");
  const auto b = workload_by_name("GMM");

  std::printf(
      "Extension: facility power emergency — budget 110 W/socket, cut to\n"
      "85 W/socket at t=600 s, restored at t=1200 s (Kmeans + GMM).\n\n");

  ConstantManager constant;
  const auto base = run_with_schedule(constant, a, b, repeats);

  CsvWriter csv(dps::bench::out_dir() + "/ext_power_emergency.csv");
  csv.write_header({"manager", "hmean_a", "hmean_b", "pair_gain",
                    "overshoot_w", "overshoot_steps"});

  Table table({"manager", "Kmeans hmean [s]", "GMM hmean [s]", "pair gain",
               "max overshoot [W]", "overshoot steps"});
  auto report = [&](PowerManager& manager) {
    const auto run = run_with_schedule(manager, a, b, repeats);
    const double gain =
        pair_hmean(base.hmean[0] / run.hmean[0], base.hmean[1] / run.hmean[1]);
    table.add_row({std::string(manager.name()),
                   format_double(run.hmean[0], 1),
                   format_double(run.hmean[1], 1), dps::bench::percent(gain),
                   format_double(run.result.max_budget_overshoot, 1),
                   std::to_string(run.result.overshoot_steps)});
    csv.write_row({std::string(manager.name()),
                   format_double(run.hmean[0], 2),
                   format_double(run.hmean[1], 2), format_double(gain, 4),
                   format_double(run.result.max_budget_overshoot, 2),
                   std::to_string(run.result.overshoot_steps)});
  };

  table.add_row({"constant", format_double(base.hmean[0], 1),
                 format_double(base.hmean[1], 1), "+0.0%",
                 format_double(base.result.max_budget_overshoot, 1),
                 std::to_string(base.result.overshoot_steps)});
  SlurmStatelessManager slurm;
  report(slurm);
  FeedbackManager feedback;
  report(feedback);
  DpsManager dps;
  report(dps);
  table.print();

  std::printf(
      "\nAll managers must shed to the emergency budget within one decision\n"
      "step (overshoot steps should be at most the number of budget cuts).\n"
      "DPS's statefulness must survive the emergency: its gain should stay\n"
      "positive and above SLURM's.\n");
  return 0;
}
