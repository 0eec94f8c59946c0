/// dpsd — the controller daemon: the production deployment shape of
/// Section 4.3. Listens for one TCP connection per power-capping unit,
/// then runs the one-second decision loop until SIGINT/SIGTERM, printing
/// periodic stats. Its role comes from [ctrl]: without a parent it is the
/// root (the paper's central controller); with --parent-host and
/// --parent-port it is an aggregator that reports its shard to a parent
/// dpsd (docs/deployment.md). `dpsd --help` lists every flag.
///
/// Example (one controller, 20 sockets, 2200 W cluster budget):
///   dpsd --units 20 --port 9571 --budget 2200

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "core/config_io.hpp"
#include "ctrl/aggregator.hpp"
#include "ctrl/ctrl_config.hpp"
#include "experiments/pair_runner.hpp"
#include "net/net_config.hpp"
#include "obs/obs_config.hpp"
#include "obs/phase.hpp"

namespace {

using namespace dps;

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop = true; }

/// dpsd's own options. The flags that set INI keys live in those keys'
/// tables: --round-deadline and --checkpoint* in [net], --parent-* in
/// [ctrl], --obs-* in [obs].
struct Options {
  int units = 0;
  int port = 9571;
  double budget = 0.0;
  double tdp = 165.0;
  double min_cap = 40.0;
  double period = 1.0;
  std::size_t rounds = 0;
  std::string manager = "dps";
  std::string config;
  bool bind_any = false;
  bool restore = false;
};

const Section<Options>& options_section() {
  using O = Options;
  static const Section<O> section{
      "",
      {{"--units", &O::units, Range::at_least(1),
        {.help = "number of power-capping units (required)"}},
       {"--port", &O::port, {0, 65535}, {.help = "TCP port"}},
       {"--budget", &O::budget, Range::at_least(0),
        {.help = "cluster-wide budget, W (0 = 110 W per unit)"}},
       {"--tdp", &O::tdp, Range::above(0), {.help = "per-unit TDP, W"}},
       {"--min-cap", &O::min_cap, Range::at_least(0),
        {.help = "per-unit minimum cap, W"}},
       {"--manager", &O::manager, {},
        {.help = "dps | slurm | constant | feedback | p2p"}},
       {"--config", &O::config, {},
        {.help = "INI with [dps] [stateless] [net] [ctrl] [obs]; a flag "
                 "overrides its key"}},
       {"--period", &O::period, Range::at_least(0),
        {.help = "decision-loop period, s"}},
       {"--rounds", &O::rounds, {},
        {.help = "stop after this many rounds (0 = until a signal)"}},
       {"--bind-any", &O::bind_any, {},
        {.help = "listen on all interfaces, not just loopback"}},
       {"--restore", &O::restore, {},
        {.help = "restore state from the --checkpoint file at start and "
                 "resume the session (the budget comes from the snapshot, "
                 "whose unit count must match --units; an aggregator's "
                 "snapshot also records its parent slot)"}}},
      {{"--manager", "must be dps, slurm, constant, feedback or p2p", nullptr,
        [](const O& o) {
          ManagerKind kind;
          return manager_kind_from_string(o.manager, kind) &&
                 kind != ManagerKind::kOracle;
        }}}};
  return section;
}

CommandLine command_line() {
  CommandLine cli("dpsd — DPS central controller daemon");
  cli.add(options_section())
      .add(net_section(), {"round_deadline_s", "checkpoint_path",
                           "checkpoint_interval_rounds"})
      .add(ctrl_section())
      .add(obs::obs_section());
  return cli;
}

/// Everything the flags and --config feed into the daemon.
struct Setup {
  Options options;
  std::unique_ptr<PowerManager> manager;
  NetConfig net;
  CtrlConfig ctrl;
  obs::ObsConfig obs;
};

/// Reads every section from --config with the flags applied over it, and
/// builds the manager: DPS from [dps], SLURM from [stateless].
void configure(const IniFile& flags, Setup& setup) {
  const Options& options = setup.options;
  IniFile ini;
  if (!options.config.empty()) ini = IniFile::load(options.config);
  ini.merge(flags);
  setup.net = net_config_from_ini(ini);
  setup.ctrl = ctrl_config_from_ini(ini);
  setup.obs = obs::obs_config_from_ini(ini);
  // Any --obs-* flag both sets the export target and enables obs.
  if (flags.has_section("obs")) setup.obs.enabled = true;
  if (options.restore && setup.net.checkpoint_path.empty()) {
    throw std::invalid_argument("--restore needs --checkpoint FILE");
  }
  // The options section's rule has already checked the name.
  ManagerKind kind = ManagerKind::kDps;
  manager_kind_from_string(options.manager, kind);
  setup.manager =
      make_manager(kind, dps_config_from_ini(ini),
                   mimd_config_from_ini(ini, slurm_plugin_defaults()));
}

/// SIGINT/SIGTERM set g_stop. No SA_RESTART, so a blocking accept()
/// returns EINTR and the wait for clients sees the flag.
void install_signal_handlers() {
  struct sigaction action {};
  action.sa_handler = handle_signal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

/// Runs the controller in the role [ctrl] gives it: waits for every
/// unit, begins or restores the session, connects to the parent (an
/// aggregator only), then runs the decision loop until --rounds, a signal
/// or the parent's shutdown, and prints the rounds' phase table.
void run(const Setup& setup, const ManagerContext& ctx,
         const obs::ObsSink& obs_sink) {
  const Options& options = setup.options;
  AggregatorNode node(*setup.manager, ctx, setup.ctrl, setup.net,
                      static_cast<std::uint16_t>(options.port),
                      options.bind_any);
  node.set_obs(obs_sink);
  std::printf("dpsd: %s manager, %d units, %.0f W budget, port %u%s",
              options.manager.c_str(), options.units, ctx.total_budget,
              node.port(),
              options.bind_any ? " (all interfaces)" : " (loopback)");
  if (node.has_parent()) {
    std::printf(", parent %s:%d", setup.ctrl.parent_host.c_str(),
                setup.ctrl.parent_port);
  }
  std::printf("\ndpsd: waiting for %d clients...\n", options.units);
  node.accept_children(&g_stop);

  if (!g_stop) {
    std::printf("dpsd: all clients connected, starting the decision loop\n");
    if (options.restore) {
      const std::uint64_t round = node.restore();
      std::printf("dpsd: restored checkpoint at round %llu, resuming\n",
                  static_cast<unsigned long long>(round));
    } else {
      node.begin();
    }
    node.connect_parent();
    if (node.has_parent()) {
      std::printf("dpsd: uplink connected as unit %d\n", node.parent_unit());
    }
  }

  std::size_t rounds = 0;
  bool parent_shutdown = false;
  const auto period = std::chrono::duration<double>(options.period);
  auto next_tick = std::chrono::steady_clock::now();
  while (!g_stop && (options.rounds == 0 || rounds < options.rounds)) {
    parent_shutdown = !node.run_round();
    ++rounds;
    if (parent_shutdown) break;
    if (rounds % 60 == 0) {
      const auto& server = node.server();
      Watts cap_sum = 0.0;
      for (const Watts c : server.last_caps()) cap_sum += c;
      std::printf(
          "dpsd: round %zu, power %.1f W, cap sum %.1f/%.0f W, decide %.1f "
          "us/round, writes %llu keeps %llu\n",
          rounds, node.last_aggregate_power(), cap_sum, node.shard_budget(),
          1e-3 *
              static_cast<double>(
                  obs_sink.phases()->ns(obs::Phase::kNetDecide)) /
              static_cast<double>(rounds),
          static_cast<unsigned long long>(server.set_cap_messages()),
          static_cast<unsigned long long>(server.keep_cap_messages()));
    }
    next_tick +=
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            period);
    std::this_thread::sleep_until(next_tick);
  }

  obs::phase_table(*obs_sink.phases()).print();
  std::printf("dpsd: shutting down after %zu rounds%s\n", rounds,
              parent_shutdown ? " (parent shutdown)" : "");
  node.shutdown_children();
  if (obs_sink.enabled() && setup.obs.any_export()) {
    obs::export_all(obs_sink, setup.obs);
    std::printf("dpsd: observability exports written\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Line-buffered, so a log file shows each line as it is printed (and
  // keeps it when the daemon is killed).
  std::setvbuf(stdout, nullptr, _IOLBF, BUFSIZ);
  const CommandLine cli = command_line();
  Setup setup;
  try {
    const auto flags = cli.parse(argc, argv);
    if (!flags) {
      std::fputs(cli.help().c_str(), stdout);
      return 0;
    }
    read_section(*flags, options_section(), setup.options);
    configure(*flags, setup);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dpsd: %s\n", error.what());
    return 2;
  }

  const Options& options = setup.options;
  ManagerContext ctx;
  ctx.num_units = options.units;
  ctx.total_budget =
      options.budget > 0.0 ? options.budget : 110.0 * options.units;
  ctx.tdp = options.tdp;
  ctx.min_cap = options.min_cap;
  ctx.dt = options.period;
  try {
    obs::ObsSink obs_sink = obs::make_sink(setup.obs);
    // The stats line and the shutdown table read the phase totals.
    obs_sink.attach_phase_times();
    install_signal_handlers();
    run(setup, ctx, obs_sink);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dpsd: fatal: %s\n", error.what());
    return 1;
  }
  return 0;
}
