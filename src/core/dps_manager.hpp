#pragma once

#include "core/cap_readjuster.hpp"
#include "core/dps_config.hpp"
#include "core/history.hpp"
#include "core/priority_module.hpp"
#include "managers/manager.hpp"
#include "managers/mimd.hpp"

namespace dps {

/// The Dynamic Power Scheduler — the paper's contribution. A model-free
/// *stateful* power manager: the only state it keeps is each unit's recent
/// power dynamics (Kalman-filtered power history), from which it derives a
/// high/low priority per unit and uses it to fix up the decisions of a
/// stateless MIMD controller. Pipeline per decision step (Figure 3):
///
///   measured power ──► Kalman filter ──► estimated power history
///                │                                │
///                ├──► stateless module (Alg. 1)   ├──► priority module (Alg. 2)
///                │             │                  │
///                └──► restore check (Alg. 3) ◄────┘
///                              │
///                    cap readjusting (Alg. 4) ──► new caps
///
/// Exposes its internals read-only so experiments can log priorities the
/// way the paper's artifact does.
class DpsManager final : public PowerManager {
 public:
  explicit DpsManager(const DpsConfig& config = {});

  std::string_view name() const override { return "dps"; }
  void reset(const ManagerContext& ctx) override;
  void decide(std::span<const Watts> power, std::span<Watts> caps) override;
  void update_budget(Watts new_total_budget) override;
  /// Wires the pipeline stages into the observability subsystem: each stage
  /// is a phase (obs/phase.hpp), and the sink gets counters for priority
  /// flips and restore rounds, and evict/readmit events.
  void set_obs(const obs::ObsSink& sink) override;

  /// Serializes / restores the full stateful pipeline — the Kalman-filtered
  /// histories, priority flags, the internal stateless module's windows and
  /// RNG stream, and the eviction bookkeeping — so a restarted controller
  /// resumes bit-identical decisions instead of relearning from scratch.
  void save_state(ByteWriter& out) const override;
  void load_state(ByteReader& in) override;

  const DpsConfig& config() const { return config_; }
  const EstimatedPowerHistory& history() const { return history_; }
  const PriorityModule& priorities() const { return priority_; }
  /// Whether the last decision step restored all caps to constant.
  bool last_step_restored() const { return last_restored_; }
  /// Units currently evicted from the shared pool as unresponsive (cap
  /// parked at the hardware minimum, watts redistributed to the living).
  const std::vector<bool>& evicted() const { return evicted_; }

 private:
  /// Tracks silent streaks, parks evicted units at min cap, and hands the
  /// reclaimed watts to the live units (proportional to their headroom).
  void update_evictions(std::span<const Watts> power, std::span<Watts> caps);

  /// Counts promotions/demotions against the previous step's priorities
  /// and refreshes the baseline. Only called with the sink enabled.
  void count_priority_flips();

  DpsConfig config_;
  MimdController stateless_;
  EstimatedPowerHistory history_;
  PriorityModule priority_;
  CapReadjuster readjuster_;
  ManagerContext ctx_;
  bool last_restored_ = false;
  std::vector<int> silent_streak_;
  std::vector<bool> evicted_;
  /// All-false priority vector handed to the readjuster when the priority
  /// module is ablated off; sized once in reset() so decide() never
  /// allocates for it.
  std::vector<bool> ablation_no_priorities_;

  // --- Observability (src/obs/); all null when the sink is disabled ---
  obs::ObsSink obs_;
  obs::Counter* obs_promotions_ = nullptr;
  obs::Counter* obs_demotions_ = nullptr;
  obs::Counter* obs_restore_rounds_ = nullptr;
  obs::Counter* obs_evictions_ = nullptr;
  obs::Counter* obs_readmissions_ = nullptr;
  std::vector<bool> prev_priorities_;
};

}  // namespace dps
