#pragma once

#include <string>
#include <vector>

#include "power/power_interface.hpp"

namespace dps {

/// One decision step's telemetry for one unit, matching the log the paper's
/// artifact records at every operating decision (average power, cap set,
/// and — when DPS runs — the priority).
struct TraceSample {
  Seconds time;
  Watts true_power;
  Watts measured_power;
  Watts cap;
  Watts demand;
  /// DPS priority at this decision: 1 = high, 0 = low, -1 = not running
  /// DPS (matches the artifact's per-decision log).
  int priority = -1;
};

/// Per-unit time series collected during a simulation when trace recording
/// is enabled (off by default: the long experiment sweeps don't need it and
/// it costs memory).
class TraceRecorder {
 public:
  explicit TraceRecorder(int num_units);

  void record(int unit, const TraceSample& sample);

  const std::vector<TraceSample>& series(int unit) const;

  int num_units() const { return static_cast<int>(series_.size()); }

  /// Dumps all units' series to a CSV at `path` with columns
  /// time,unit,true_power,measured_power,cap,demand,priority — the
  /// priority column carries TraceSample::priority (1/0 under DPS, -1
  /// otherwise), matching what src/analysis/trace_analysis.hpp reads.
  /// Values are written in their shortest round-trip form, so Trace's
  /// loader reads back every sample bit for bit.
  void write_csv(const std::string& path) const;

  /// Extracts one column of a unit's series.
  std::vector<double> measured_of(int unit) const {
    return column(unit, &TraceSample::measured_power);
  }
  std::vector<double> true_power_of(int unit) const {
    return column(unit, &TraceSample::true_power);
  }
  std::vector<double> cap_of(int unit) const {
    return column(unit, &TraceSample::cap);
  }

 private:
  std::vector<double> column(int unit, Watts TraceSample::*field) const;

  std::vector<std::vector<TraceSample>> series_;
};

}  // namespace dps
