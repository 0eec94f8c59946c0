#pragma once

#include <vector>

#include "core/dps_config.hpp"
#include "power/power_interface.hpp"
#include "signal/kalman.hpp"
#include "signal/rolling.hpp"
#include "signal/window_bank.hpp"

namespace dps {

/// The stateful heart of DPS: the "estimated power history" of Figure 3.
/// One Kalman filter and one bounded rolling window per unit. Every
/// decision step the noisy measurements pass through the filters and the
/// posterior estimates are pushed into the per-unit histories, alongside a
/// parallel window of step durations (Algorithm 2's duration_history, used
/// by the average-derivative estimate).
///
/// The filters live in a KalmanBank (structure-of-arrays), so the per-step
/// predict/update is one contiguous pass, and the histories in a
/// time-major WindowBank, so appending a step is one row copy. Estimates
/// and checkpoint bytes are identical to the former std::vector<Kalman1D>
/// and std::vector<RollingWindow>.
class EstimatedPowerHistory {
 public:
  explicit EstimatedPowerHistory(const DpsConfig& config);

  /// (Re-)sizes for `num_units` units and clears all state.
  void reset(int num_units);

  /// Filters one step of measurements (in unit order) and appends the
  /// estimates + the step duration to the histories. With the Kalman
  /// ablation off, raw measurements are stored instead.
  void observe(std::span<const Watts> measured, Seconds dt);

  /// Number of units tracked.
  int num_units() const { return static_cast<int>(power_.units()); }

  /// Most recent power estimate for `unit`.
  Watts estimate(int unit) const;

  /// Every unit's power history window.
  const WindowBank& power_windows() const { return power_; }

  /// A copy of the power history window of `unit`, oldest first.
  std::vector<double> power_history(int unit) const;

  /// The parallel step-duration window of `unit`. Every unit receives the
  /// same dt at the same observe() call, so one shared window backs all
  /// units (the checkpoint still carries the per-unit wire format).
  const RollingWindow& duration_history(int unit) const;

  /// Whether the history has accumulated its full window (DPS "needs at
  /// most the time of the range of estimated power history to make desired
  /// decisions", Section 6.5).
  bool warmed_up() const;

  /// Checkpoint support: serializes / restores the filters and the
  /// per-unit windows. load must follow a reset() with the same unit
  /// count; throws std::runtime_error on a mismatching snapshot.
  void save(ByteWriter& out) const;
  void load(ByteReader& in);

 private:
  DpsConfig config_;
  KalmanBank filters_;
  WindowBank power_;
  /// The estimates of one EWMA-ablation step, pushed as one row.
  std::vector<double> row_;
  /// Shared step-duration window: observe() pushes one identical dt for
  /// every unit, so per-unit copies would be n clones of this.
  RollingWindow durations_;
  bool first_observation_ = true;
};

}  // namespace dps
