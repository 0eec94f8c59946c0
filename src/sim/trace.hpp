#pragma once

#include <string>
#include <vector>

#include "power/power_interface.hpp"
#include "signal/phase_stats.hpp"
#include "util/csv_reader.hpp"

namespace dps {

/// One unit's telemetry columns, one entry per decision step.
struct UnitTrace {
  std::vector<double> time;
  std::vector<double> true_power;
  std::vector<double> measured_power;
  std::vector<double> cap;
  std::vector<double> demand;
  /// DPS priority at each decision: 1 = high, 0 = low, -1 = not running
  /// DPS (matches the artifact's per-decision log).
  std::vector<int> priority;
};

/// The per-step telemetry of a run, the log the paper's artifact records
/// at every operating decision (average power, cap set and, under DPS, the
/// priority), and its post-processing: "one can compute the satisfaction
/// of each node and the fairness between the two clusters". The engine
/// records one when EngineConfig::record_trace is set (off by default: the
/// long sweeps don't need it and it costs memory); `exp --trace` writes it
/// and `analyze` reads it back. The CSV's columns are
///   time,unit,true_power,measured_power,cap,demand,priority
/// with one row per unit and step, unit by unit.
class Trace {
 public:
  /// Units 0..num_units-1, each with no samples yet.
  explicit Trace(int num_units = 0);

  /// Appends one decision step's sample to unit `u`'s columns.
  void record(int u, Seconds time, Watts true_power, Watts measured_power,
              Watts cap, Watts demand, int priority);

  /// Writes the CSV to `path`, every value in its shortest round-trip
  /// form, so load_csv reads back every sample bit for bit. Throws
  /// std::runtime_error naming the path if it cannot be written.
  void write_csv(const std::string& path) const;

  /// Reads the CSV. Every row must hold a time, true_power, measured_power,
  /// cap and demand that are finite numbers, an int unit and a priority of
  /// -1, 0 or 1; the units must be numbered 0..n-1. Throws
  /// std::runtime_error naming the line of the first row that breaks a
  /// rule, or on a missing column or no rows.
  static Trace from_csv(const CsvReader& csv);

  /// Same, over a file (errors cite its path). Throws std::runtime_error
  /// if unreadable.
  static Trace load_csv(const std::string& path);

  int num_units() const { return static_cast<int>(units_.size()); }
  /// Throws std::out_of_range for a unit the trace does not have.
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

  /// Share of samples the unit carried DPS high priority, or -1 when it
  /// has no priority information (a run under another manager).
  double high_priority_share(int unit) const;

 private:
  std::vector<UnitTrace> units_;
};

}  // namespace dps
