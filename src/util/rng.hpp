#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/bytes.hpp"

namespace dps {

/// The Box-Muller transform of one pair of uniforms (`u1` in (0, 1)): two
/// independent standard normals. Rng::normal() and NormalDraws share it,
/// so a deviate is the same bits whichever of them produced it.
void box_muller(double u1, double u2, double& cos_deviate,
                double& sin_deviate);

/// The uniforms behind a run of successive Rng::normal() deviates, drawn in
/// one serial pass by Rng::draw_normals. Only the draws must happen in
/// order; each pair's transform (a log and a sincos, most of a deviate's
/// cost) depends on nothing but its two uniforms, so callers may transform
/// any part of the run on any thread, in any order.
class NormalDraws {
 public:
  /// The pair a caller transformed last, so that reading a pair's two
  /// deviates one after the other costs one transform.
  struct Memo {
    std::size_t pair = std::numeric_limits<std::size_t>::max();
    double cos = 0.0;
    double sin = 0.0;
  };

  /// Deviates in the run.
  std::size_t size() const { return count_; }

  /// Deviate `i` (< size()): bit for bit the i-th of the normal() calls
  /// the draw stands for.
  double deviate(std::size_t i, Memo& memo) const {
    if (i < skip_) return pending_;
    const std::size_t j = i - skip_;
    const std::size_t pair = j >> 1;
    if (pair != memo.pair) {
      if (pair == last_.pair) {
        memo = last_;
      } else {
        memo.pair = pair;
        box_muller(uniforms_[2 * pair], uniforms_[2 * pair + 1], memo.cos,
                   memo.sin);
      }
    }
    return (j & 1) != 0 ? memo.sin : memo.cos;
  }

 private:
  friend class Rng;

  std::vector<double> uniforms_;  // (u1, u2) of each Box-Muller pair
  double pending_ = 0.0;          // the cached deviate the run began with
  std::size_t skip_ = 0;          // 1 when it began with one
  std::size_t count_ = 0;
  // The last pair, transformed by the draw for the generator's cache.
  Memo last_;
};

/// Deterministic, seedable PRNG (xoshiro256++) used everywhere in the
/// simulator so that every experiment is reproducible from a single seed.
/// Not cryptographic; chosen for speed and statistical quality in Monte
/// Carlo style simulation.
class Rng {
 public:
  /// Seeds the four 64-bit lanes from `seed` via SplitMix64 so that nearby
  /// seeds still produce decorrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n);

  /// Standard normal via Box-Muller (cached second deviate).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Draws the uniforms of the next `count` normal() deviates into `out`
  /// and leaves this generator exactly as `count` normal() calls would: a
  /// pending cached deviate is the run's first, and when the last pair's
  /// sine is left over it becomes the cached deviate.
  void draw_normals(std::size_t count, NormalDraws& out);

  /// Splits off an independent child stream; used to give each simulated
  /// unit / workload run its own stream without coupling their sequences.
  Rng split();

  /// Checkpoint support: serializes / restores the exact generator state
  /// (lanes + the cached Box-Muller deviate), so a restored stream
  /// continues bit-identically where the saved one stopped.
  void save(ByteWriter& out) const;
  void load(ByteReader& in);

  // UniformRandomBitGenerator interface so <algorithm> shuffles work.
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()() { return next_u64(); }

 private:
  /// The two uniforms of one Box-Muller pair, u1 redrawn while it is 0.
  void draw_pair(double& u1, double& u2);

  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Fisher-Yates shuffle of indices [0, n); returns the permuted order.
/// The stateless module uses this for its randomized cap-increase loop.
void shuffle_indices(Rng& rng, std::uint32_t* idx, std::uint32_t n);

/// Mixes up to three coordinates into one well-spread 64-bit seed
/// (SplitMix64 over the concatenated words). Used to give every
/// (seed, run, socket) / (seed, job, unit) workload realization its own
/// independent RNG stream: realizations depend only on the coordinates,
/// never on how many draws other instances consumed before them.
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b = 0,
                       std::uint64_t c = 0);

}  // namespace dps
