#pragma once

#include <map>
#include <string>
#include <vector>

#include "power/power_interface.hpp"
#include "signal/phase_stats.hpp"
#include "util/csv_reader.hpp"

namespace dps {

/// Post-processing of recorded telemetry — the counterpart of the paper
/// artifact's analysis scripts ("a log of the average power during every
/// operating cycle, the power cap set ... one can compute the satisfaction
/// of each node and the fairness between the two clusters"). Operates on
/// the CSV format TraceRecorder::write_csv emits:
///   time,unit,true_power,measured_power,cap,demand,priority
/// (priority is optional on read, for traces predating the column).

/// One unit's telemetry columns, reassembled from the flat CSV.
struct UnitTrace {
  std::vector<double> time;
  std::vector<double> true_power;
  std::vector<double> measured_power;
  std::vector<double> cap;
  std::vector<double> demand;
  /// Per-decision DPS priority (1/0), or -1 when the trace was recorded
  /// under a non-DPS manager or predates the column.
  std::vector<int> priority;
};

/// A parsed multi-unit trace.
class Trace {
 public:
  /// Reads a TraceRecorder CSV. Every row must hold a time, true_power,
  /// measured_power, cap and demand that are finite numbers, an int unit,
  /// and, when the column exists, a priority of -1, 0 or 1; the units must
  /// be numbered 0..n-1. Throws std::runtime_error naming the line of the
  /// first row that breaks a rule, or on a missing column or no rows.
  static Trace from_csv(const CsvReader& csv);

  /// Same, over a file (errors cite its path). Throws std::runtime_error
  /// if unreadable.
  static Trace load_csv(const std::string& path);

  int num_units() const { return static_cast<int>(units_.size()); }
  const UnitTrace& unit(int u) const;

  /// Per-unit satisfaction over the whole trace (Eq. 1: mean true power /
  /// mean demand, clamped to [0,1]). Demand is the uncapped-draw stand-in
  /// recorded by the simulator.
  double satisfaction_of(int unit) const;

  /// Fairness (Eq. 2) between the mean satisfaction of two unit groups
  /// (e.g. sockets 0..9 vs 10..19 for the standard two-cluster runs).
  double group_fairness(const std::vector<int>& group_a,
                        const std::vector<int>& group_b) const;

  /// Share of samples where the unit's demand exceeded 110 W but its cap
  /// sat below `threshold` — "starvation" in the bring-up sense.
  double starved_share(int unit, Watts cap_threshold = 104.0) const;

  /// Phase statistics of a unit's true power (Figure 2 style).
  PhaseStats phases_of(int unit, Watts threshold = 110.0) const;

  /// Mean of the per-sample sum of caps across units (budget utilization).
  double mean_cap_sum() const;

  /// Share of samples the unit carried DPS high priority; nullopt-like -1
  /// when the trace has no priority information.
  double high_priority_share(int unit) const;

 private:
  std::map<int, UnitTrace> units_;
};

}  // namespace dps
