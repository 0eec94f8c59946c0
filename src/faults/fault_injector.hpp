#pragma once

#include <vector>

#include "faults/fault_plan.hpp"
#include "obs/sink.hpp"

namespace dps {

/// Walks a FaultPlan over simulated time and exposes the set of currently
/// active faults as cheap per-unit queries. The engine calls advance(now)
/// once per decision step; activation and clearing both happen inside that
/// call, in deterministic plan order, so two runs of the same plan always
/// see the same fault state at every step.
class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, int num_units);

  /// Advances to simulated time `now` (monotonically non-decreasing):
  /// activates every event with at <= now, then clears every active event
  /// whose window ended. The events that changed state are available via
  /// just_activated() / just_cleared() until the next advance.
  void advance(Seconds now);

  bool crashed(int unit) const { return crash_[unit] > 0; }
  bool sensor_dropout(int unit) const { return dropout_[unit] > 0; }
  bool sensor_garbage(int unit) const { return garbage_[unit] > 0; }
  bool cap_stuck(int unit) const { return stuck_[unit] > 0; }

  /// Thermal fault queries (only consumed when EngineConfig::thermal is
  /// set; the events still activate/clear cleanly without it).
  /// Product of the unit's active fan-degradation magnitudes, exactly 1.0
  /// when none is active (the engine feeds this straight into
  /// ThermalModel::set_resistance_multiplier).
  double fan_degrade_factor(int unit) const;
  bool temp_sensor_stuck(int unit) const { return temp_stuck_[unit] > 0; }

  /// Product of nothing: the *strongest* (minimum) scale factor among
  /// active budget sags, 1.0 when none is active.
  double budget_factor() const;

  /// Any fault currently active (used to attribute overshoot to faults).
  bool any_active() const { return active_count_ > 0; }

  /// Events whose state changed during the last advance().
  const std::vector<FaultEvent>& just_activated() const { return activated_; }
  const std::vector<FaultEvent>& just_cleared() const { return cleared_; }

  /// Total events activated so far.
  int activated_count() const { return activated_total_; }

  /// Emits kFaultBegin / kFaultEnd events (stamped with the advance time,
  /// detail = fault kind) and counts activations into the sink's registry.
  void set_obs(const obs::ObsSink& sink);

  int num_units() const { return static_cast<int>(crash_.size()); }

 private:
  struct ActiveEvent {
    FaultEvent event;
    Seconds clears_at;  // < 0: never
  };

  void apply(const FaultEvent& e, int delta);

  std::vector<FaultEvent> schedule_;  // time-sorted, from the plan
  std::size_t next_ = 0;
  std::vector<ActiveEvent> active_;
  std::vector<int> crash_, dropout_, garbage_, stuck_, fan_degrade_,
      temp_stuck_;
  std::vector<double> sag_factors_;  // magnitudes of active sags
  // Magnitudes of the active fan-degradation faults (unit, multiplier);
  // a linear list like sag_factors_ — overlaps are rare and the product
  // is recomputed on query, so clears restore exactly 1.0.
  std::vector<std::pair<int, double>> fan_factors_;
  int active_count_ = 0;
  int activated_total_ = 0;
  std::vector<FaultEvent> activated_, cleared_;
  obs::ObsSink obs_;
  obs::Counter* obs_activations_ = nullptr;
};

}  // namespace dps
