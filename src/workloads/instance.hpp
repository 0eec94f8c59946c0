#pragma once

#include <cstddef>
#include <cstdint>

#include "util/rng.hpp"
#include "workloads/spec.hpp"

namespace dps {

/// Power demand of a socket that is not executing anything: OS + uncore
/// background draw.
inline constexpr Watts kIdlePower = 22.0;

/// One realized execution of a WorkloadSpec on one socket: segment durations
/// and demand levels perturbed by the spec's jitter parameters, after a
/// per-socket start offset. The realization is generated forward, one
/// piece at a time: the instance holds the spec by reference, its private
/// RNG, the run's duration scale and a cursor, never the realized
/// segments, so its size does not depend on the spec's segment count. The
/// simulator owns the progress and the current piece.
class WorkloadInstance {
 public:
  /// Builds an *active* instance whose jitter comes from a private RNG
  /// seeded with `seed`. The same (spec, seed) always yields the
  /// bit-identical realization regardless of what else was instantiated
  /// before it — the simulator derives `seed` from stable coordinates
  /// (engine seed, run index, socket) via mix_seed(). `spec` must outlive
  /// the instance.
  WorkloadInstance(const WorkloadSpec& spec, std::uint64_t seed);

  /// Builds an idle (inactive-socket) instance: one piece of `duration`
  /// seconds drawing idle power. Used for sockets beyond the spec's
  /// active_sockets.
  static WorkloadInstance idle(Seconds duration);

  /// One realized segment: a linear stretch of demand over progress.
  struct Piece {
    Seconds start = 0.0;
    Seconds end = 0.0;  // start + duration: where the next piece starts
    Seconds duration = 0.0;
    Watts start_power = 0.0;
    Watts power_delta = 0.0;  // end power - start power

    /// Demand at `progress` in [start, end). Before any progress a run
    /// reads its first piece's start power, even a zero-length piece's.
    Watts demand(Seconds progress) const {
      if (progress <= 0.0) return start_power;
      const double frac = (progress - start) / duration;
      return start_power + frac * power_delta;
    }
  };

  /// Draws the next piece into `*out` and returns true, or returns false
  /// and leaves `*out` alone once every piece has been drawn. Pieces come
  /// in progress order, each starting where the previous one ended; the
  /// last one's end is the realization's total work. The draws are one
  /// stream in a fixed order: the start offset and the run's duration
  /// scale at construction, then each segment's duration and power scale
  /// as it is drawn.
  bool next(Piece* out);

  /// Whether this instance represents real work (false for idle filler).
  bool active() const { return spec_ != nullptr; }

 private:
  WorkloadInstance() = default;

  const WorkloadSpec* spec_ = nullptr;  // nullptr: idle filler
  Rng rng_;
  double run_scale_ = 1.0;
  Seconds lead_ = 0.0;  // the leading idle hold: start offset, idle span
  std::ptrdiff_t cursor_ = 0;  // next spec segment; -1: the lead hold
  Seconds start_ = 0.0;        // where the next piece starts
};

}  // namespace dps
