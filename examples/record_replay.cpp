/// Record & replay: the workflow a practitioner uses to evaluate DPS
/// against their own applications without giving DPS control of anything.
///
///   1. RECORD  — run the application uncapped and log its power at 1 Hz
///                (here: simulate Bayes uncapped; on hardware you would
///                poll SysfsRapl and write the same two-column CSV);
///   2. REPLAY  — turn the recorded trace into a workload model
///                (workload_from_trace_csv) and co-run it against another
///                workload under every manager in the simulator;
///   3. DECIDE  — compare the speedups/fairness before touching production.

#include <cstdio>
#include <string>

#include "experiments/pair_runner.hpp"
#include "experiments/registry.hpp"
#include "managers/constant.hpp"
#include "sim/engine.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "workloads/trace_workload.hpp"

int main(int argc, char** argv) {
  using namespace dps;
  const std::string recorded_name = argc > 1 ? argv[1] : "Bayes";
  const std::string partner_name = argc > 2 ? argv[2] : "CG";
  const std::string csv_path = "recorded_" + recorded_name + ".csv";

  // --- 1. RECORD: uncapped solo run, one socket logged at 1 Hz. ---
  std::printf("[1/3] recording an uncapped run of %s -> %s\n",
              recorded_name.c_str(), csv_path.c_str());
  {
    Cluster cluster({GroupSpec{workload_by_name(recorded_name), 10, 81}});
    SimulatedRapl rapl(cluster.total_units());
    EngineConfig config;
    config.total_budget = 165.0 * cluster.total_units();  // never binds
    config.target_completions = 1;
    config.record_trace = true;
    config.max_time = 20000.0;
    ConstantManager constant;
    const auto result =
        SimulationEngine(config).run(cluster, rapl, constant);

    CsvWriter csv(csv_path);
    csv.write_header({"time_s", "power_w"});
    const UnitTrace& socket = result.trace->unit(0);
    for (std::size_t i = 0; i < socket.time.size(); ++i) {
      csv.write_row({format_double(socket.time[i], 0),
                     format_double(socket.true_power[i], 2)});
    }
  }

  // --- 2. REPLAY: the CSV becomes a first-class workload. ---
  const auto replayed = workload_from_trace_csv(csv_path, recorded_name);
  std::printf(
      "[2/3] replayed workload: %.0f s nominal, %.1f%% above 110 W, "
      "classified %s\n",
      replayed.nominal_duration(),
      100.0 * replayed.fraction_above(110.0),
      to_string(replayed.power_type));

  // --- 3. DECIDE: co-run it against the partner under every manager. ---
  std::printf("[3/3] co-running with %s under all managers\n\n",
              partner_name.c_str());
  ExperimentParams params;
  params.repeats = 2;
  PairRunner runner(params);
  const auto partner = workload_by_name(partner_name);

  Table table({"manager", recorded_name + " speedup",
               partner_name + " speedup", "pair hmean", "fairness"});
  for (const auto kind : {ManagerKind::kConstant, ManagerKind::kSlurm,
                          ManagerKind::kDps}) {
    const auto outcome = runner.run_pair(replayed, partner, kind);
    table.add_row({to_string(kind), format_double(outcome.a.speedup, 3),
                   format_double(outcome.b.speedup, 3),
                   format_double(outcome.pair_hmean, 3),
                   format_double(outcome.fairness, 3)});
  }
  table.print();
  std::printf("\n(recorded trace kept at %s; feed any real 1 Hz power log\n"
              "through the same pipeline)\n", csv_path.c_str());
  return 0;
}
