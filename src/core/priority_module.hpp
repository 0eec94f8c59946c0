#pragma once

#include <vector>

#include "core/dps_config.hpp"
#include "core/history.hpp"

namespace dps {

/// The priority module of Section 4.3.3 / Algorithm 2. Converts each unit's
/// power dynamics — change frequency and first derivative — into a binary
/// priority:
///
///  * A unit whose history shows more prominent peaks than the threshold is
///    flagged *high-frequency* and pinned at high priority: its phases flip
///    faster than the manager can react, so DPS keeps it safely provisioned
///    (this is what guarantees the constant-allocation lower bound).
///    The flag is sticky; it clears only when both the peak count AND the
///    history's standard deviation drop below their thresholds — the
///    std-dev is the second witness for fast change that the fixed-
///    prominence peak counter can miss.
///  * Otherwise the average first derivative over the recent history
///    decides: fast increase => high priority (the unit needs power now or
///    soon), fast decrease => low priority (it will not), in-between =>
///    priority unchanged (a unit stays high-priority for the duration of
///    its high phase, until power actually falls).
class PriorityModule {
 public:
  explicit PriorityModule(const DpsConfig& config);

  void reset(int num_units);

  /// Recomputes priorities from the current histories. `caps` (the units'
  /// current power caps) feeds the stale-priority demotion check: a
  /// high-priority unit drawing far below its cap for several steps is
  /// demoted, since a pinned flat power trace can never cross the decrease
  /// threshold on its own. Throws std::invalid_argument unless the history
  /// and `caps` both cover reset()'s unit count.
  void update(const EstimatedPowerHistory& history,
              std::span<const Watts> caps);

  /// True = high priority.
  bool high_priority(int unit) const;
  const std::vector<bool>& priorities() const { return priority_; }

  /// Whether the unit is currently flagged as high-frequency.
  bool high_frequency(int unit) const;

  /// Units currently at high priority.
  int count_high() const;

  /// Checkpoint support: serializes / restores the priority flags and
  /// hysteresis streaks. load must follow a reset() with the same unit
  /// count; throws std::runtime_error on a mismatching snapshot.
  void save(ByteWriter& out) const;
  void load(ByteReader& in);

 private:
  DpsConfig config_;
  std::vector<bool> high_freq_;
  std::vector<bool> priority_;
  std::vector<int> idle_streak_;
  /// Scratch of update(): the bank exits' verdicts, one per unit, and one
  /// gathered window.
  std::vector<double> peakless_;
  std::vector<double> window_;
};

}  // namespace dps
