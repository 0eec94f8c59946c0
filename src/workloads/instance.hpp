#pragma once

#include <vector>

#include "util/rng.hpp"
#include "workloads/spec.hpp"

namespace dps {

/// Power demand of a socket that is not executing anything: OS + uncore
/// background draw.
inline constexpr Watts kIdlePower = 22.0;

/// One realized execution of a WorkloadSpec on one socket: segment durations
/// and demand levels perturbed by the spec's jitter parameters, plus a
/// per-socket start offset. Immutable after construction; the simulator owns
/// the progress cursor.
class WorkloadInstance {
 public:
  /// Builds an *active* instance from the spec with jitter drawn from `rng`.
  WorkloadInstance(const WorkloadSpec& spec, Rng& rng);

  /// Builds an *active* instance whose jitter comes from a private RNG
  /// seeded with `seed`. The same (spec, seed) always yields the
  /// bit-identical realization regardless of what else was instantiated
  /// before it — the simulator derives `seed` from stable coordinates
  /// (engine seed, run index, socket) via mix_seed().
  WorkloadInstance(const WorkloadSpec& spec, std::uint64_t seed);

  /// Builds an idle (inactive-socket) instance that completes after
  /// `duration` seconds drawing idle power. Used for sockets beyond the
  /// spec's active_sockets.
  static WorkloadInstance idle(Seconds duration);

  /// Demand at the given progress point; the pre-run start offset appears
  /// as idle demand at the beginning.
  Watts demand_at(Seconds progress) const;

  /// Same, but resumes the segment scan from `*hint` (a segment index kept
  /// by the caller). Progress is monotone within a run, so this makes the
  /// per-step lookup O(1) amortized instead of O(#segments).
  Watts demand_at(Seconds progress, std::size_t* hint) const;

  /// The linear stretch of demand that demand_at evaluates once its scan
  /// has settled on a segment, with that evaluation's operands.
  struct Piece {
    Seconds start = 0.0;
    Seconds end = 0.0;  // start + duration, never past total_work()
    Seconds duration = 0.0;
    Watts start_power = 0.0;
    Watts power_delta = 0.0;  // end power - start power

    /// Progress for which demand_at(progress, hint) settles on this piece
    /// when `hint` is the index the piece was taken at.
    bool contains(Seconds progress) const {
      return progress > 0.0 && progress >= start && progress < end;
    }
    Watts demand(Seconds progress) const {
      const double frac = (progress - start) / duration;
      return start_power + frac * power_delta;
    }
  };

  /// The piece demand_at's scan starts from for this hint (clamped to the
  /// last segment, as demand_at clamps it). For progress the piece
  /// contains, demand_at(progress, &h) settles on this same piece, so
  /// piece(h).demand(progress) is its result bit for bit. Without segments
  /// the piece contains nothing.
  Piece piece(std::size_t hint) const;

  /// Total seconds of (uncapped-speed) work including the start offset.
  Seconds total_work() const { return total_work_; }

  /// Whether this instance represents real work (false for idle filler).
  bool active() const { return active_; }

 private:
  WorkloadInstance() = default;

  std::vector<Segment> segments_;
  std::vector<Seconds> segment_starts_;  // prefix sums, parallel to segments_
  Seconds total_work_ = 0.0;
  bool active_ = true;
};

}  // namespace dps
