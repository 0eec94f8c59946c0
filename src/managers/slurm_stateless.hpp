#pragma once

#include "managers/manager.hpp"
#include "managers/mimd.hpp"

namespace dps {

/// The stateless model-free baseline: SLURM's power management plugin
/// behaviour (paper Section 2.3), i.e. the MIMD controller of Algorithm 1
/// and nothing else. It reacts only to instantaneous power, so it greedily
/// keeps budget with whoever reached high power first and cannot
/// anticipate phase changes — the failure modes DPS addresses.
class SlurmStatelessManager final : public PowerManager {
 public:
  /// Defaults to the plugin's documented PowerParameters (30 s balance
  /// interval, 20 % increase, 50 % decrease).
  explicit SlurmStatelessManager(
      const MimdConfig& config = slurm_plugin_defaults());

  std::string_view name() const override { return "slurm"; }
  void reset(const ManagerContext& ctx) override;
  void decide(std::span<const Watts> power, std::span<Watts> caps) override;
  void update_budget(Watts new_total_budget) override {
    mimd_.update_budget(new_total_budget);
  }
  /// The MIMD controller's RNG stream, windows and cadence. An empty
  /// snapshot, as written before this manager saved its state, restores
  /// cold.
  void save_state(ByteWriter& out) const override { mimd_.save_state(out); }
  void load_state(ByteReader& in) override;

 private:
  MimdController mimd_;
};

}  // namespace dps
