/// dpsd — the central controller daemon: the production deployment shape
/// of Section 4.3. Listens for one TCP connection per power-capping unit,
/// then runs the one-second decision loop until SIGINT/SIGTERM, printing
/// periodic stats. `dpsd --help` lists every flag.
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

#include "core/checkpoint.hpp"
#include "core/config_io.hpp"
#include "ctrl/aggregator.hpp"
#include "ctrl/ctrl_config.hpp"
#include "experiments/pair_runner.hpp"
#include "net/net_config.hpp"
#include "net/server.hpp"
#include "obs/obs_config.hpp"

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
                 "resume the session (units and budget come from the "
                 "snapshot; in aggregator mode the file is a tree snapshot "
                 "that also records the parent slot)"}}},
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

/// Aggregator mode: runs DPS over this shard's children and reports the
/// aggregate to the parent dpsd, until --rounds, a signal or the parent's
/// shutdown.
void run_aggregator(const Setup& setup, const ManagerContext& ctx,
                    const obs::ObsSink& obs_sink) {
  const Options& options = setup.options;
  const NetConfig& net = setup.net;
  AggregatorNode aggregator(*setup.manager, ctx, setup.ctrl, net,
                            static_cast<std::uint16_t>(options.port),
                            options.bind_any);
  aggregator.set_obs(obs_sink);
  std::printf(
      "dpsd[aggregator]: %s manager, %d children, %.0f W initial "
      "budget, port %u, parent %s:%d\n",
      options.manager.c_str(), options.units, ctx.total_budget,
      aggregator.port(), setup.ctrl.parent_host.c_str(),
      setup.ctrl.parent_port);
  std::printf("dpsd[aggregator]: waiting for %d children...\n",
              options.units);
  aggregator.accept_children(&g_stop);

  std::size_t rounds = 0;
  bool parent_shutdown = false;
  if (!g_stop) {
    if (options.restore) {
      const AggregatorCheckpoint ckpt =
          read_aggregator_checkpoint_file(net.checkpoint_path);
      aggregator.resume(ckpt);
      obs_sink.event(obs::EventKind::kCheckpointRestore, -1,
                     static_cast<double>(ckpt.inner.round));
      std::printf(
          "dpsd[aggregator]: restored checkpoint at round %llu "
          "(parent slot %d), resuming\n",
          static_cast<unsigned long long>(ckpt.inner.round),
          ckpt.parent_unit);
    } else {
      aggregator.begin();
    }
    aggregator.connect_parent();
    std::printf("dpsd[aggregator]: uplink connected as unit %d\n",
                aggregator.parent_unit());
  }

  const auto period = std::chrono::duration<double>(options.period);
  auto next_tick = std::chrono::steady_clock::now();
  while (!g_stop && (options.rounds == 0 || rounds < options.rounds)) {
    parent_shutdown = !aggregator.run_round();
    ++rounds;
    if (!net.checkpoint_path.empty() &&
        aggregator.rounds() % net.checkpoint_interval_rounds == 0) {
      const AggregatorCheckpoint ckpt = aggregator.make_checkpoint();
      write_aggregator_checkpoint_file(net.checkpoint_path, ckpt);
      obs_sink.event(obs::EventKind::kCheckpointWrite, -1,
                     static_cast<double>(aggregator.rounds()),
                     static_cast<double>(ckpt.inner.manager_state.size()));
    }
    if (parent_shutdown) break;
    if (rounds % 60 == 0) {
      std::printf(
          "dpsd[aggregator]: round %zu, shard %.1f W under %.1f W "
          "budget, decide %.1f us/round\n",
          rounds, aggregator.last_aggregate_power(),
          aggregator.shard_budget(),
          1e-3 * static_cast<double>(aggregator.decide_ns()) /
              static_cast<double>(rounds));
    }
    next_tick +=
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            period);
    std::this_thread::sleep_until(next_tick);
  }

  std::printf("dpsd[aggregator]: shutting down after %zu rounds%s\n", rounds,
              parent_shutdown ? " (parent shutdown)" : "");
  aggregator.shutdown_children();
  if (obs_sink.enabled() && setup.obs.any_export()) {
    obs::export_all(obs_sink, setup.obs);
    std::printf("dpsd[aggregator]: observability exports written\n");
  }
}

/// The flat controller: waits for every unit, then runs the decision loop
/// until --rounds or a signal.
void run_flat(const Setup& setup, ManagerContext ctx,
              const obs::ObsSink& obs_sink) {
  const Options& options = setup.options;
  const NetConfig& net = setup.net;
  PowerManager& manager = *setup.manager;
  ControlServer server(static_cast<std::uint16_t>(options.port),
                       options.units, options.bind_any, net);
  server.set_obs(obs_sink);
  const Watts budget = ctx.total_budget;  // the stats quote the boot value
  std::printf("dpsd: %s manager, %d units, %.0f W budget, port %u%s\n",
              options.manager.c_str(), options.units, budget,
              server.port(),
              options.bind_any ? " (all interfaces)" : " (loopback)");
  std::printf("dpsd: waiting for %d clients...\n", options.units);
  server.accept_all(&g_stop);

  if (!g_stop) {
    std::printf("dpsd: all clients connected, starting the decision loop\n");
    if (options.restore) {
      const ControlCheckpoint ckpt = read_checkpoint_file(net.checkpoint_path);
      restore_manager(manager, ckpt);
      ctx = ckpt.ctx;  // the snapshot is authoritative for the session shape
      server.resume_session(manager, ctx, ckpt.round, ckpt.caps,
                            ckpt.previous_caps);
      obs_sink.event(obs::EventKind::kCheckpointRestore, -1,
                     static_cast<double>(ckpt.round));
      std::printf("dpsd: restored checkpoint at round %llu, resuming\n",
                  static_cast<unsigned long long>(ckpt.round));
    } else {
      server.begin_session(manager, ctx);
    }
  }

  std::uint64_t decide_ns = 0;
  std::size_t rounds = 0;
  const auto period = std::chrono::duration<double>(options.period);
  auto next_tick = std::chrono::steady_clock::now();
  while (!g_stop && (options.rounds == 0 || rounds < options.rounds)) {
    decide_ns += server.run_round(manager);
    ++rounds;
    if (!net.checkpoint_path.empty() &&
        server.rounds() % net.checkpoint_interval_rounds == 0) {
      const ControlCheckpoint ckpt =
          make_checkpoint(manager, ctx, server.rounds(), server.last_caps(),
                          server.previous_caps());
      write_checkpoint_file(net.checkpoint_path, ckpt);
      obs_sink.event(obs::EventKind::kCheckpointWrite, -1,
                     static_cast<double>(server.rounds()),
                     static_cast<double>(ckpt.manager_state.size()));
    }
    if (rounds % 60 == 0) {
      Watts total = 0.0;
      for (const Watts c : server.last_caps()) total += c;
      std::printf(
          "dpsd: round %zu, cap sum %.1f/%.0f W, decide %.1f us/round, "
          "writes %llu keeps %llu\n",
          rounds, total, budget,
          1e-3 * static_cast<double>(decide_ns) / static_cast<double>(rounds),
          static_cast<unsigned long long>(server.set_cap_messages()),
          static_cast<unsigned long long>(server.keep_cap_messages()));
    }
    next_tick +=
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            period);
    std::this_thread::sleep_until(next_tick);
  }

  std::printf("dpsd: shutting down after %zu rounds\n", rounds);
  server.shutdown();
  if (obs_sink.enabled() && setup.obs.any_export()) {
    obs::export_all(obs_sink, setup.obs);
    std::printf("dpsd: observability exports written\n");
  }
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
    const obs::ObsSink obs_sink = obs::make_sink(setup.obs);
    install_signal_handlers();
    if (!setup.ctrl.parent_host.empty() && setup.ctrl.parent_port != 0) {
      run_aggregator(setup, ctx, obs_sink);
    } else {
      run_flat(setup, ctx, obs_sink);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dpsd: fatal: %s\n", error.what());
    return 1;
  }
  return 0;
}
