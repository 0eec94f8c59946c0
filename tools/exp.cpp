/// exp — the command-line experiment driver, mirroring the paper
/// artifact's exp.py: run any workload pair under any power management
/// system with any repeat count, and print the metrics the paper reports.
/// `exp --help` lists every flag.
///
/// Examples:
///   exp --list
///   exp --a Kmeans --b GMM --manager dps --repeats 3
///   exp --a LDA --b EP --manager slurm --trace slurm_lda_ep.csv

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "core/config_io.hpp"
#include "ctrl/tree.hpp"
#include "experiments/pair_runner.hpp"
#include "experiments/registry.hpp"
#include "net/net_config.hpp"
#include "obs/obs_config.hpp"
#include "obs/phase.hpp"
#include "sched/arrivals.hpp"
#include "sched/sched_config.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "thermal/thermal_config.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "workloads/npb_suite.hpp"
#include "workloads/spark_suite.hpp"

namespace {

using namespace dps;

/// exp's own options. The flags that set INI keys live in those keys'
/// tables: --obs-* in [obs], --thermal-* in [thermal], --arrival-rate and
/// --jobs in [sched].
struct Options {
  std::string a = "Kmeans";
  std::string b = "GMM";
  std::string manager = "dps";
  int repeats = 2;
  std::size_t seed = 42;
  double budget = 110.0;
  int sockets = 10;
  std::string trace;
  std::string config;
  bool list = false;
  // Job-schedule mode (src/sched/): active when --sched-policy or
  // --job-trace is given.
  std::string sched_policy;
  std::string job_trace;
  int units = 20;
  // Hierarchical control plane (src/ctrl/): shard the units and run the
  // manager per shard under a DPS root tier. 0 = flat (default).
  int tree_shard = 0;
  int tree_jobs = 1;
  // Thermal coupling (src/thermal/): this or any --thermal-* flag enables
  // the RC model and its throttle governor.
  bool thermal = false;

  bool sched_mode() const {
    return !sched_policy.empty() || !job_trace.empty();
  }
};

const Section<Options>& options_section() {
  using O = Options;
  static const Section<O> section{
      "",
      {{"--a", &O::a, {}, {.help = "workload on cluster A"}},
       {"--b", &O::b, {}, {.help = "workload on cluster B"}},
       {"--manager", &O::manager, {},
        {.help = "constant | slurm | oracle | dps | feedback | p2p"}},
       {"--repeats", &O::repeats, Range::at_least(1),
        {.help = "completed runs per workload"}},
       {"--seed", &O::seed, {}, {.help = "jitter seed"}},
       {"--budget", &O::budget, Range::above(0),
        {.help = "per-socket cluster budget, W"}},
       {"--sockets", &O::sockets, Range::at_least(1),
        {.help = "sockets per cluster"}},
       {"--trace", &O::trace, {}, {.help = "dump per-step telemetry CSV"}},
       {"--config", &O::config, {},
        {.help = "INI with [dps] [stateless] [obs] [thermal]; [net] is "
                 "validated too, so one file serves exp and the daemons"}},
       {"--list", &O::list, {}, {.help = "list the available workloads"}},
       {"--sched-policy", &O::sched_policy, {},
        {.help = "job-schedule mode: fcfs | backfill | power"}},
       {"--job-trace", &O::job_trace, {},
        {.help = "job-schedule mode: replay arrivals from a CSV trace"}},
       {"--units", &O::units, Range::at_least(1),
        {.help = "job-schedule mode: power-capping units in the machine"}},
       {"--tree-shard", &O::tree_shard, Range::at_least(0),
        {.help = "units per leaf shard; the manager runs per shard under a "
                 "DPS root tier (0 = flat)"}},
       {"--tree-jobs", &O::tree_jobs, Range::at_least(1),
        {.help = "threads for the leaf decides (decisions are identical "
                 "at any value)"}},
       {"--thermal", &O::thermal, {},
        {.help = "enable the RC thermal model and its throttle governor"}}},
      {{"--manager", "must be constant, slurm, oracle, dps, feedback or p2p",
        nullptr,
        [](const O& o) {
          ManagerKind kind;
          return manager_kind_from_string(o.manager, kind);
        }},
       {"--sched-policy", "must be fcfs, backfill or power", nullptr,
        [](const O& o) {
          sched::SchedPolicy policy;
          return o.sched_policy.empty() ||
                 sched::sched_policy_from_string(o.sched_policy, policy);
        }}}};
  return section;
}

CommandLine command_line() {
  CommandLine cli(
      "exp — run one workload pair under a power manager (see exp.py in\n"
      "the paper's artifact). --sched-policy or --job-trace switch to\n"
      "job-schedule mode: an open job stream with --a/--b as its Poisson\n"
      "workload mix. --tree-shard runs either mode under a tree.");
  cli.add(options_section())
      .add(sched::sched_section())
      .add(thermal_section())
      .add(obs::obs_section());
  return cli;
}

/// Everything the flags and --config feed into a run. The [net] section
/// is parsed and validated too — not used by the simulator, but it keeps a
/// single dps.ini honest across exp, dpsd, and dps_node.
struct Setup {
  Options options;
  ManagerKind kind = ManagerKind::kDps;
  DpsConfig dps;
  MimdConfig stateless;
  obs::ObsConfig obs;
  std::optional<ThermalConfig> thermal;
  sched::JobScheduleConfig jobs;

  /// A run records when obs is on or --trace names a file.
  bool records() const { return obs.enabled || !options.trace.empty(); }
};

/// Reads every section from --config with the flags applied over it.
void configure(const IniFile& flags, Setup& setup) {
  const Options& options = setup.options;
  IniFile ini;
  if (!options.config.empty()) ini = IniFile::load(options.config);
  ini.merge(flags);
  // The options section's rule has already checked the name.
  manager_kind_from_string(options.manager, setup.kind);
  setup.dps = dps_config_from_ini(ini);
  setup.stateless = mimd_config_from_ini(ini, slurm_plugin_defaults());
  setup.obs = obs::obs_config_from_ini(ini);
  // An --obs-* flag turns obs on, as does `enabled` in the file.
  if (flags.has_section("obs")) setup.obs.enabled = true;
  // A thermal flag enables the model even where the file disables it;
  // the file's values then stay unused, as with no [thermal] at all.
  setup.thermal = thermal_config_from_ini(ini);
  if (!setup.thermal && (options.thermal || flags.has_section("thermal"))) {
    setup.thermal = thermal_config_from_ini(flags).value_or(ThermalConfig{});
  }
  net_config_from_ini(ini);
  // exp takes [sched] from its flags only, never from the file.
  setup.jobs = sched::sched_config_from_ini(flags);
}

/// The run's manager: the chosen kind, or with --tree-shard a
/// TreeController running it per shard under a DPS root tier. Only a
/// flat pair run has the oracle's demand view.
std::unique_ptr<PowerManager> make_run_manager(const Setup& setup,
                                               DemandView demand = {}) {
  if (setup.options.tree_shard <= 0) {
    return make_manager(setup.kind, setup.dps, setup.stateless,
                        std::move(demand));
  }
  CtrlConfig ctrl;
  ctrl.shard_size = setup.options.tree_shard;
  ctrl.leaf_jobs = setup.options.tree_jobs;
  return std::make_unique<TreeController>(
      ctrl,
      [kind = setup.kind, dps = setup.dps, slurm = setup.stateless] {
        return make_manager(kind, dps, slurm);
      },
      [dps = setup.dps] { return make_manager(ManagerKind::kDps, dps); });
}

void list_workloads() {
  Table table({"workload", "suite", "power type", "nominal [s]",
               "paper latency [s]", "above 110W (paper)"});
  for (const auto& name : all_workload_names()) {
    const auto spec = workload_by_name(name);
    const auto paper = paper_stats_by_name(name);
    table.add_row({name,
                   spec.power_type == PowerType::kNpb ? "NPB" : "HiBench",
                   to_string(spec.power_type),
                   format_double(spec.nominal_duration(), 0),
                   format_double(paper.duration, 1),
                   format_double(paper.above_110_fraction * 100.0, 2) + "%"});
  }
  table.print();
}

using Millis = std::chrono::duration<double, std::milli>;

/// The sink of the run, in either mode: per [obs], with the phase times
/// attached when the run records.
obs::ObsSink run_sink(const Setup& setup) {
  obs::ObsSink sink = obs::make_sink(setup.obs);
  if (setup.records()) sink.attach_phase_times();
  return sink;
}

/// Ends a recorded run: where it spent its time (the phase table of
/// obs/phase.hpp, under the run's wall time, which bounds its total), then
/// its trace and its exports.
void finish_recording(const Setup& setup, const obs::ObsSink& sink,
                      Millis wall, const Trace* trace) {
  if (!setup.records()) return;
  std::printf("\nphases of the recorded run (%.1f ms wall):\n", wall.count());
  obs::phase_table(*sink.phases()).print();
  if (trace != nullptr) {
    std::printf("\n(writing telemetry trace to %s)\n",
                setup.options.trace.c_str());
    trace->write_csv(setup.options.trace);
  }
  if (setup.obs.enabled && setup.obs.any_export()) {
    obs::export_all(sink, setup.obs);
    std::printf("(observability exports written)\n");
  }
}

/// Job-schedule mode: run an open job stream through the scheduling
/// subsystem instead of the static pair assignment.
void run_sched_mode(const Setup& setup) {
  const Options& options = setup.options;
  sched::JobScheduleConfig js = setup.jobs;
  if (!options.sched_policy.empty()) {
    sched::sched_policy_from_string(options.sched_policy, js.policy);
  }
  js.seed = options.seed;
  js.workload_mix = {options.a, options.b};
  js.resolve = [](const std::string& name) { return workload_by_name(name); };
  if (!options.job_trace.empty()) {
    js.trace = sched::load_job_trace(options.job_trace);
  }

  EngineConfig config;
  config.total_budget = options.budget * options.units;
  config.record_trace = !options.trace.empty();
  config.obs = run_sink(setup);
  config.job_schedule = js;
  config.thermal = setup.thermal;

  const auto manager = make_run_manager(setup);
  const auto start = std::chrono::steady_clock::now();
  const auto result = run_jobs(*manager, config, options.units);
  const Millis wall = std::chrono::steady_clock::now() - start;
  const auto& s = result.sched;
  std::printf("job stream under %s / %s policy (%d units, %.0f W budget, "
              "seed %llu)\n\n",
              options.manager.c_str(),
              sched::to_string(js.policy), options.units,
              config.total_budget,
              static_cast<unsigned long long>(options.seed));
  Table table({"KPI", "value"});
  table.add_row({"jobs submitted", std::to_string(s.submitted)});
  table.add_row({"jobs completed", std::to_string(s.completed)});
  table.add_row({"crash requeues", std::to_string(s.requeued)});
  table.add_row({"jobs abandoned", std::to_string(s.abandoned)});
  table.add_row({"jobs shrunk", std::to_string(s.shrunk)});
  table.add_row({"throttle stalls", std::to_string(s.throttle_stalls)});
  table.add_row({"mean wait [s]", format_double(s.mean_wait, 1)});
  table.add_row({"max wait [s]", format_double(s.max_wait, 1)});
  table.add_row({"mean bounded slowdown",
                 format_double(s.mean_bounded_slowdown, 3)});
  table.add_row({"mean utilization", format_double(s.mean_utilization, 3)});
  table.add_row({"max queue depth", std::to_string(s.max_queue_depth)});
  table.add_row({"elapsed [s]", format_double(result.elapsed, 0)});
  table.add_row({"timed out", result.timed_out ? "yes" : "no"});
  table.add_row({"peak cap sum [W]", format_double(result.peak_cap_sum, 1)});
  if (config.thermal.has_value()) {
    table.add_row(
        {"thermal throttles", std::to_string(result.thermal_throttle_events)});
    table.add_row(
        {"thermal shed [Ws]", format_double(result.thermal_shed_ws, 1)});
    table.add_row(
        {"peak temperature [C]", format_double(result.peak_temperature_c, 1)});
  }
  table.print();
  finish_recording(setup, config.obs, wall, result.trace.get());
}

/// The paper's pair run under the run's manager.
void run_pair_mode(const Setup& setup) {
  const Options& options = setup.options;
  ExperimentParams params;
  params.repeats = options.repeats;
  params.seed = options.seed;
  params.budget_per_socket = options.budget;
  params.sockets_per_cluster = options.sockets;
  params.dps = setup.dps;
  params.slurm = setup.stateless;
  params.thermal = setup.thermal;
  params.obs = run_sink(setup);
  PairRunner runner(params);

  const auto workload_a = workload_by_name(options.a);
  const auto workload_b = workload_by_name(options.b);
  // The solo baselines first, so that the wall time is the pair run's.
  for (const auto* spec : {&workload_a, &workload_b}) {
    runner.baseline_hmean(*spec);
    runner.uncapped_mean_power(*spec);
  }
  const auto start = std::chrono::steady_clock::now();
  const auto outcome = runner.run_pair(
      workload_a, workload_b, setup.kind,
      [&setup](DemandView demand) {
        return make_run_manager(setup, std::move(demand));
      },
      !options.trace.empty());
  const Millis wall = std::chrono::steady_clock::now() - start;

  std::printf("%s + %s under %s (%d repeats, %.0f W/socket, %d+%d "
              "sockets)\n\n",
              options.a.c_str(), options.b.c_str(), options.manager.c_str(),
              options.repeats, options.budget, options.sockets,
              options.sockets);
  Table table({"metric", options.a, options.b});
  table.add_row({"runs completed", std::to_string(outcome.a.latencies.size()),
                 std::to_string(outcome.b.latencies.size())});
  table.add_row({"hmean latency [s]",
                 format_double(outcome.a.hmean_latency, 1),
                 format_double(outcome.b.hmean_latency, 1)});
  table.add_row({"speedup vs constant", format_double(outcome.a.speedup, 4),
                 format_double(outcome.b.speedup, 4)});
  table.add_row({"mean power [W]", format_double(outcome.a.mean_power, 1),
                 format_double(outcome.b.mean_power, 1)});
  table.add_row({"satisfaction", format_double(outcome.a.satisfaction, 3),
                 format_double(outcome.b.satisfaction, 3)});
  table.print();
  std::printf("\npair hmean speedup: %s   fairness: %s   peak cap sum: "
              "%.1f W (budget %.0f W)\n",
              format_double(outcome.pair_hmean, 4).c_str(),
              format_double(outcome.fairness, 4).c_str(),
              outcome.peak_cap_sum, options.budget * 2 * options.sockets);
  if (params.thermal.has_value()) {
    std::printf("thermal: %d throttle engagements, %.1f Ws shed by the "
                "governor, peak %.1f C (trip %.1f C)\n",
                outcome.thermal_throttle_events, outcome.thermal_shed_ws,
                outcome.peak_temperature_c, params.thermal->trip_c);
  }
  finish_recording(setup, params.obs, wall, outcome.trace.get());
}

}  // namespace

int main(int argc, char** argv) {
  const CommandLine cli = command_line();
  Setup setup;
  try {
    const auto flags = cli.parse(argc, argv);
    if (!flags) {
      std::fputs(cli.help().c_str(), stdout);
      return 0;
    }
    read_section(*flags, options_section(), setup.options);
    if (setup.options.list) {
      list_workloads();
      return 0;
    }
    configure(*flags, setup);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "exp: %s\n", error.what());
    return 2;
  }
  try {
    if (setup.options.sched_mode()) {
      run_sched_mode(setup);
    } else {
      run_pair_mode(setup);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}
