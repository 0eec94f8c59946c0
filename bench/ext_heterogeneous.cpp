/// Extension experiment: heterogeneous fleets. Real clouds mix hardware
/// generations; the paper's claim that DPS "can be deployed on any cloud
/// system" implies it must handle units with different TDPs. Here cluster
/// A runs on full-size 165 W sockets and cluster B on small 125 W sockets
/// (its demand model scaled accordingly); the manager is told each unit's
/// TDP (ManagerContext::unit_tdp) so it never parks budget on a socket
/// that cannot draw it.
///
/// Expected: DPS's advantage survives heterogeneity, and a TDP-aware DPS
/// beats one that believes every socket can take 165 W (the unaware
/// variant strands budget on saturated small sockets).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/dps_manager.hpp"
#include "experiments/registry.hpp"
#include "managers/constant.hpp"
#include "managers/slurm_stateless.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace dps;

/// Scales a workload's demand levels (small sockets draw less at the same
/// activity) without touching durations.
WorkloadSpec scale_power(WorkloadSpec spec, double factor) {
  for (auto& segment : spec.segments) {
    segment.start_power = kIdlePower +
                          (segment.start_power - kIdlePower) * factor;
    segment.end_power = kIdlePower +
                        (segment.end_power - kIdlePower) * factor;
  }
  return spec;
}

/// Tells the wrapped manager each unit's TDP (units 0-9 are 165 W
/// sockets, 10-19 are 125 W) on top of the homogeneous context
/// SimulationEngine hands it.
class KnownTdps final : public PowerManager {
 public:
  explicit KnownTdps(PowerManager& inner) : inner_(inner) {}
  std::string_view name() const override { return inner_.name(); }
  void reset(const ManagerContext& ctx) override {
    ManagerContext with_tdps = ctx;
    with_tdps.unit_tdp.assign(20, 165.0);
    for (int u = 10; u < 20; ++u) with_tdps.unit_tdp[u] = 125.0;
    inner_.reset(with_tdps);
  }
  void decide(std::span<const Watts> power, std::span<Watts> caps) override {
    inner_.decide(power, caps);
  }
  void update_budget(Watts new_total_budget) override {
    inner_.update_budget(new_total_budget);
  }
  void set_obs(const obs::ObsSink& sink) override { inner_.set_obs(sink); }

 private:
  PowerManager& inner_;
};

/// Each group's harmonic-mean latency under `manager`.
std::vector<double> run(PowerManager& manager, bool tdp_aware, int repeats) {
  const auto big = workload_by_name("Kmeans");
  const auto small = scale_power(workload_by_name("GMM"), 0.72);

  EngineConfig config;
  // Budget: 2/3 of the heterogeneous fleet's aggregate TDP.
  config.total_budget = (10 * 165.0 + 10 * 125.0) * 2.0 / 3.0;
  config.target_completions = repeats;
  config.max_time = 60000.0;
  KnownTdps aware(manager);
  PowerManager& decider = tdp_aware ? aware : manager;
  return dps::bench::run_groups(
             {GroupSpec{big, 10, 91}, GroupSpec{small, 10, 92}}, decider,
             config)
      .hmean;
}

}  // namespace

int main() {
  using namespace dps;
  const int repeats = dps::bench::params_from_env().repeats;

  std::printf(
      "Extension: heterogeneous fleet — 10x165 W sockets (Kmeans) + "
      "10x125 W sockets\n(scaled GMM), budget = 2/3 of aggregate TDP. Pair "
      "hmean gain vs constant.\n\n");

  ConstantManager constant;
  const auto base = run(constant, /*tdp_aware=*/true, repeats);

  CsvWriter csv(dps::bench::out_dir() + "/ext_heterogeneous.csv");
  csv.write_header({"manager", "pair_gain"});
  Table table({"manager", "pair gain"});
  auto report = [&](const char* label, PowerManager& manager,
                    bool tdp_aware) {
    const auto result = run(manager, tdp_aware, repeats);
    const double gain =
        pair_hmean(base[0] / result[0], base[1] / result[1]);
    table.add_row({label, dps::bench::percent(gain)});
    csv.write_row({label, format_double(gain, 4)});
  };

  SlurmStatelessManager slurm;
  report("slurm (tdp-aware)", slurm, true);
  DpsManager dps_unaware;
  report("dps (tdp-unaware)", dps_unaware, false);
  DpsManager dps_aware;
  report("dps (tdp-aware)", dps_aware, true);
  table.print();

  std::printf(
      "\nExpected: DPS leads SLURM under heterogeneity, and knowing the\n"
      "per-unit TDPs beats assuming 165 W everywhere (budget otherwise\n"
      "parks on saturated small sockets).\n");
  return 0;
}
