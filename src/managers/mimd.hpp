#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "managers/manager.hpp"
#include "signal/window_bank.hpp"
#include "util/rng.hpp"

namespace dps {

/// Thresholds and step sizes of the Multiplicative-Increase-
/// Multiplicative-Decrease controller (paper Algorithm 1), inspired by
/// SLURM's power management plugin. Thresholds are fractions of the current
/// cap; percentiles are multiplicative step factors.
struct MimdConfig {
  /// Raise the cap when measured power exceeds this fraction of it (the
  /// unit is pressing against its limit).
  double inc_threshold = 0.95;
  /// Lower the cap when measured power falls below this fraction of it
  /// (the unit has unused headroom).
  double dec_threshold = 0.85;
  /// Multiplicative cap increase per step.
  double inc_percentile = 1.10;
  /// Multiplicative cap decrease per step; the cap never drops below the
  /// unit's measured power times dec_floor_margin.
  double dec_percentile = 0.95;
  /// Floor of a decrease, as a multiple of the measured power: the cap is
  /// lowered toward recent usage but keeps this much headroom above it.
  double dec_floor_margin = 1.0;
  /// Recompute caps only every this many decide() calls; in between the
  /// caps are left untouched (SLURM's balance_interval, in decision
  /// steps). The paper re-implements SLURM's algorithm inside its own
  /// one-second control loop, so the baseline defaults to 1; the ablation
  /// bench sweeps coarser cadences.
  int decision_interval_steps = 1;
  /// Cap *decreases* act on the mean of the most recent this-many power
  /// readings: SLURM's plugin lowers caps from accumulated energy counters
  /// over its balance window (~30 s), which smooths straight over phases
  /// shorter than the window — it cannot even see the high-frequency
  /// workloads' bursts. Cap *increases* react to the instantaneous
  /// reading — a unit pinned at its cap is visibly pinned right now.
  /// DPS's stateless module uses the instantaneous reading for both
  /// (window 1).
  int dec_window_steps = 1;
  std::uint64_t shuffle_seed = 0x51a7e1e55ULL;
};

/// The SLURM power plugin's algorithm parameters as the paper's baseline
/// runs them: upper/lower thresholds 95 %/90 %, increase_rate 20 %,
/// decrease_rate 50 % toward recent usage (with a little headroom), every
/// decision step. Aggressive slashing plus large increase steps make it
/// responsive when budget is free — and persistently unfair when it is
/// not, which is exactly the behaviour the paper measures. DPS's internal
/// stateless module keeps the gentler defaults above (its cap readjuster
/// overrides the allocation anyway and the derivative detector needs the
/// headroom a gradual decrease leaves).
MimdConfig slurm_plugin_defaults();

/// The stateless MIMD controller of Algorithm 1. Decreases first (freeing
/// budget from units drawing below their caps), then walks the units in a
/// fresh random order granting increases from the freed budget, so no unit
/// has a standing priority over another. Also records which units' caps it
/// changed this step (Algorithm 1's set_flag), which DPS's readjusting
/// module consumes.
class MimdController {
 public:
  explicit MimdController(const MimdConfig& config = {});

  void reset(const ManagerContext& ctx);

  /// One stateless decision: rewrites `caps` in place from measured
  /// `power`. Maintains sum(caps) <= total budget; after a budget cut it
  /// first sheds the excess proportionally. Throws std::invalid_argument
  /// unless `power` and `caps` both hold reset()'s unit count.
  void decide(std::span<const Watts> power, std::span<Watts> caps);

  /// Applies a runtime budget change (see PowerManager::update_budget).
  void update_budget(Watts new_total_budget) {
    ctx_.total_budget = new_total_budget;
  }

  /// Flags of units whose caps the last decide() changed.
  const std::vector<bool>& set_flags() const { return set_flags_; }

  /// Checkpoint support: serializes / restores all decision-relevant state
  /// (RNG stream, averaging windows, cadence phase) so a restored
  /// controller continues bit-identically. load_state must be called after
  /// reset() with the same num_units the state was saved with.
  void save_state(ByteWriter& out) const;
  void load_state(ByteReader& in);

  const MimdConfig& config() const { return config_; }

 private:
  MimdConfig config_;
  ManagerContext ctx_;
  Rng rng_;
  std::vector<std::uint32_t> order_;
  std::vector<bool> set_flags_;
  WindowBank power_windows_;
  std::vector<Watts> averaged_power_;
  int steps_since_decision_ = 0;
};

}  // namespace dps
