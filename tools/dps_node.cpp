/// dps_node — the per-node client daemon. Connects every local
/// power-capping unit to a dpsd controller, reporting its power each round
/// and applying the caps it receives. `dps_node --help` lists every flag.
///
/// Two backends:
///   --sysfs [ROOT]   real Intel RAPL through the Linux powercap tree
///                    (one connection per package domain; needs root to
///                    write caps);
///   --simulate N     N simulated nodes (SimNode: one socket and its
///                    RAPL) — lets the whole control plane be exercised on
///                    any machine (this is what the smoke test drives).
///                    Unit u plays the paper workload
///                    all_workload_names()[(seed + u) % 19], keyed on
///                    (seed, u).
///
/// Examples:
///   dps_node --host 10.0.0.1 --port 9571 --sysfs
///   dps_node --port 9571 --simulate 2 --seed 7
///   dps_node --port 9571 --simulate 2 --config configs/dps.ini

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "experiments/registry.hpp"
#include "net/client.hpp"
#include "net/net_config.hpp"
#include "power/rapl_sysfs.hpp"
#include "sim/sim_node.hpp"
#include "util/config_table.hpp"

namespace {

using namespace dps;

/// dps_node's own options. The reconnect and failsafe flags set [net] keys
/// over the --config file's, and every client takes that NetConfig.
struct Options {
  std::string host = "127.0.0.1";
  int port = 9571;
  std::string sysfs;  // the powercap root; empty: not the sysfs backend
  int simulate = 0;
  std::size_t seed = 1;
  std::string config;
};

const Section<Options>& options_section() {
  using O = Options;
  static const Section<O> section{
      "",
      {{"--host", &O::host, {}, {.help = "controller address"}},
       {"--port", &O::port, {0, 65535}, {.help = "controller TCP port"}},
       {"--sysfs", &O::sysfs, {},
        {.help = "drive the real RAPL domains under this powercap root",
         .implicit = SysfsRapl::kDefaultRoot}},
       {"--simulate", &O::simulate, Range::at_least(0),
        {.help = "drive this many simulated nodes instead"}},
       {"--seed", &O::seed, {},
        {.help = "--simulate: unit u plays workload (seed + u) mod 19 of "
                 "exp --list, keyed on (seed, u)"}},
       {"--config", &O::config, {},
        {.help = "INI whose [net] the clients use; a flag overrides its "
                 "key"}}},
      {{"--sysfs", "or --simulate N: pass exactly one", nullptr,
        [](const O& o) { return o.sysfs.empty() == (o.simulate > 0); }}}};
  return section;
}

}  // namespace

int main(int argc, char** argv) {
  // Line-buffered, so a log file shows each line as it is printed.
  std::setvbuf(stdout, nullptr, _IOLBF, BUFSIZ);
  CommandLine cli("dps_node — per-node DPS client daemon");
  cli.add(options_section())
      .add(net_section(),
           {"failsafe_cap_w", "reconnect_max_attempts",
            "reconnect_base_backoff_s", "reconnect_max_backoff_s"});
  Options options;
  NetConfig net;
  try {
    const auto flags = cli.parse(argc, argv);
    if (!flags) {
      std::fputs(cli.help().c_str(), stdout);
      return 0;
    }
    read_section(*flags, options_section(), options);
    // [net] from the file with the flags applied over it, as in dpsd.
    IniFile ini;
    if (!options.config.empty()) ini = IniFile::load(options.config);
    ini.merge(*flags);
    net = net_config_from_ini(ini);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dps_node: %s\n", error.what());
    return 2;
  }

  // One client per unit, each on its own thread. A client that fails for
  // good reports it and ends its thread; the others run on.
  std::atomic<bool> failed{false};
  std::vector<std::thread> unit_threads;
  // A simulated unit's end line also names the workload its node played
  // and the runs it completed.
  auto start = [&](int u, std::uint64_t jitter_seed,
                   NodeClient::PowerSource source, NodeClient::CapSink sink,
                   std::shared_ptr<const SimNode> node) {
    unit_threads.emplace_back([=, &failed] {
      try {
        NodeClient client(source, sink, net, jitter_seed);
        const int rounds = client.run_resilient(
            static_cast<std::uint16_t>(options.port), options.host);
        const std::string played =
            node ? " (" + node->spec().name + ", " +
                       std::to_string(node->completions().size()) +
                       " runs completed)"
                 : "";
        std::printf("dps_node: unit %d finished after %d rounds%s\n", u,
                    rounds, played.c_str());
      } catch (const std::exception& error) {
        std::fprintf(stderr, "dps_node: unit %d: fatal: %s\n", u,
                     error.what());
        failed = true;
      }
    });
  };
  try {
    if (!options.sysfs.empty()) {
      auto rapl = std::make_shared<SysfsRapl>(options.sysfs);
      std::printf("dps_node: %d RAPL package domains under %s\n",
                  rapl->num_units(), options.sysfs.c_str());
      for (int u = 0; u < rapl->num_units(); ++u) {
        start(u, 0x9d5ULL + static_cast<std::uint64_t>(u),
              [rapl, u] { return rapl->read_power(u); },
              [rapl, u](Watts cap) { rapl->set_cap(u, cap); }, nullptr);
      }
    } else {
      std::printf("dps_node: %d simulated units -> %s:%d\n",
                  options.simulate, options.host.c_str(), options.port);
      const auto names = all_workload_names();
      for (int u = 0; u < options.simulate; ++u) {
        const auto node = std::make_shared<SimNode>(
            workload_by_name(names[(options.seed + u) % names.size()]),
            options.seed, u);
        start(u, options.seed + static_cast<std::uint64_t>(u) * 31,
              [node] { return node->report(); },
              [node](Watts cap) { node->apply(cap); }, node);
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dps_node: fatal: %s\n", error.what());
    failed = true;
  }
  for (auto& t : unit_threads) t.join();
  return failed ? 1 : 0;
}
