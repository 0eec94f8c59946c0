#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/bytes.hpp"

namespace dps {

/// Fixed-capacity rolling window over a scalar series, oldest samples
/// evicted first. DPS keeps one of these per unit: the "estimated power
/// history" of Section 4.3 (default capacity 20 decision steps). Provides
/// the statistics the priority module needs — standard deviation and an
/// end-to-end average first derivative. Nothing is cached: stddev() and
/// the priority module's peak count over contents() rescan the whole
/// window on every call.
class RollingWindow {
 public:
  explicit RollingWindow(std::size_t capacity);

  /// Appends a sample, evicting the oldest if full.
  void push(double value);

  /// push(value) followed by mean(), fused into a single traversal (the
  /// eviction shift accumulates the sum as it moves samples). Summation
  /// order is exactly mean()'s over the new contents, so the result is
  /// bit-identical. The stateless module calls this once per unit per
  /// step, where the separate push-then-rescan was a measurable cost.
  double push_mean(double value);

  std::size_t size() const { return data_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool full() const { return data_.size() == capacity_; }
  bool empty() const { return data_.empty(); }

  /// i-th sample, 0 = oldest. Negative indexing helper: at_back(0) = newest.
  double at(std::size_t i) const;
  double at_back(std::size_t i) const;

  double mean() const;

  /// Population standard deviation (matches numpy.std's default ddof=0,
  /// which the paper's artifact uses for Algorithm 2's std threshold).
  double stddev() const;

  double min() const;
  double max() const;

  /// Average first derivative over the most recent `length` samples with
  /// the given per-sample durations:
  ///   (newest - sample[length-1 steps back]) / sum(last length-1 durations)
  /// This is Algorithm 2's avg_direv. `durations` must parallel this
  /// window's samples (same eviction). Returns 0 when fewer than 2 samples
  /// are available.
  double avg_derivative(const RollingWindow& durations,
                        std::size_t length) const;

  /// Snapshot of the contents, oldest first. The peak detector consumes
  /// this contiguous view.
  std::span<const double> contents() const;

  void clear();

  /// Checkpoint support: serializes / restores the window contents. The
  /// capacity is configuration and must match on load (throws
  /// std::runtime_error when the snapshot holds more samples than fit).
  void save(ByteWriter& out) const;
  void load(ByteReader& in);

 private:
  std::size_t capacity_;
  // Kept physically contiguous (memmove on eviction) so contents() can hand
  // a span to the peak detector without copying. Windows are tiny (~20), so
  // the shift is cheaper than ring-buffer linearization.
  std::vector<double> data_;
};

/// Mean of a span; 0 for empty input.
double mean_of(std::span<const double> values);

/// Population standard deviation of a span; 0 for fewer than 1 sample.
double stddev_of(std::span<const double> values);

/// Harmonic mean. Throws std::invalid_argument if any value is <= 0.
/// Returns 0 for empty input.
double harmonic_mean(std::span<const double> values);

}  // namespace dps
