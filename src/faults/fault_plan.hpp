#pragma once

#include <cstdint>
#include <vector>

#include "power/power_interface.hpp"

namespace dps {

/// The failure modes a real overprovisioned cluster throws at its power
/// manager. The paper's evaluation only disturbs the system through clean
/// budget-schedule changes; this subsystem adds the messy rest: nodes die,
/// RAPL actuators wedge, sensors lie. Every fault is *typed* so experiments
/// can escalate one dimension at a time.
enum class FaultKind {
  /// The unit goes dark: draws no power, makes no progress, its sensor
  /// reads zero. Clears as a warm restart (work resumes where it stopped).
  kUnitCrash,
  /// read_power keeps returning the last good value (a wedged telemetry
  /// daemon / stale MSR cache). The unit itself keeps running.
  kSensorDropout,
  /// read_power returns deterministic garbage in [0, 2·TDP] — corrupted
  /// counters, firmware bugs, the works.
  kSensorGarbage,
  /// set_cap is silently ignored; the hardware keeps enforcing whatever
  /// cap was in effect when the fault hit (a stuck RAPL actuator).
  kCapStuck,
  /// Transient facility budget sag: the cluster-wide budget is scaled by
  /// `magnitude` (e.g. 0.7) while the fault is active.
  kBudgetSag,
  /// Thermal fault: the unit's cooling degrades (clogged fan, failed
  /// blower) — its thermal resistance is scaled by `magnitude` (>= 1)
  /// while the fault is active. Only bites when EngineConfig::thermal is
  /// on; otherwise the event activates and clears without effect.
  kFanDegrade,
  /// Thermal fault: the unit's temperature sensor freezes at its current
  /// reading, so the throttle governor acts on stale data — it can miss a
  /// real overheat or hold a throttle long after the unit cooled.
  kTempSensorStuck,
};

const char* to_string(FaultKind kind);

/// One scheduled fault over simulated time.
struct FaultEvent {
  /// Activation time (simulated seconds).
  Seconds at = 0.0;
  /// Active window; <= 0 means the fault never clears.
  Seconds duration = 0.0;
  /// Target unit; ignored (use -1) for kBudgetSag.
  int unit = -1;
  FaultKind kind = FaultKind::kUnitCrash;
  /// kBudgetSag: budget scale factor in (0, 1]. kFanDegrade: thermal
  /// resistance multiplier >= 1. Unused otherwise.
  double magnitude = 1.0;

  Seconds clears_at() const { return duration <= 0.0 ? -1.0 : at + duration; }

  bool operator==(const FaultEvent&) const = default;
};

/// Knobs for the random plan generator. Rates are *expected events per
/// 1000 simulated seconds across the whole cluster*, the natural unit for
/// the escalating-fault-rate sweeps (a 20-socket cluster at crash_rate 2
/// loses a node about every 500 s).
struct FaultPlanConfig {
  std::uint64_t seed = 0xfa011708ULL;
  /// Events are generated on [0, horizon).
  Seconds horizon = 10000.0;
  double crash_rate = 0.0;
  double sensor_dropout_rate = 0.0;
  double sensor_garbage_rate = 0.0;
  double cap_stuck_rate = 0.0;
  double budget_sag_rate = 0.0;
  double fan_degrade_rate = 0.0;
  double temp_stuck_rate = 0.0;
  /// Fault durations are uniform in [min_duration, max_duration].
  Seconds min_duration = 30.0;
  Seconds max_duration = 180.0;
  /// Budget sags scale the budget by a factor uniform in [sag_floor, 1).
  double sag_floor = 0.6;
  /// Fan degradation scales thermal resistance by a factor uniform in
  /// [fan_degrade_min, fan_degrade_max]; both must be >= 1.
  double fan_degrade_min = 1.25;
  double fan_degrade_max = 2.0;
};

/// An immutable, time-sorted schedule of fault events. Fully deterministic:
/// the same (config, num_units) always generates the bit-identical plan,
/// which is what makes faulted experiments reproducible and comparable
/// across managers.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Takes an explicit event list (tests, hand-written drills). Sorts by
  /// (at, unit, kind) and validates; throws std::invalid_argument on
  /// negative times, out-of-range units (needs num_units > 0 to check), or
  /// sag magnitudes outside (0, 1].
  FaultPlan(std::vector<FaultEvent> events, int num_units);

  /// Draws a random plan from Poisson arrivals per fault kind (exponential
  /// inter-arrival times), deterministically from config.seed. Throws
  /// std::invalid_argument on a config that breaks faults_section()'s
  /// rules (faults/fault_config.hpp) or num_units <= 0.
  static FaultPlan generate(const FaultPlanConfig& config, int num_units);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace dps
