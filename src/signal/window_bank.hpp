#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/bytes.hpp"

namespace dps {

/// A bank of equal-length rolling windows, one per unit, that are always
/// pushed together: the per-unit windows of the estimated power history
/// and of the stateless module's decrease average. Storage is time-major,
/// one row of `units` samples per time slot in a [capacity][units] ring, so
/// every window shares one head and one sample count. A push is one row
/// copy, and a pass over the windows of a block of units streams whole
/// rows (the lane-wise peak exits and the MIMD window mean run that way).
/// There is no mirrored copy of the ring: one unit's window, oldest first,
/// is gathered with copy_window when a contiguous series is needed.
///
/// The checkpoint bytes are exactly those of a std::vector<RollingWindow>
/// saved window by window: per unit a u64 sample count, then the samples
/// oldest first.
class WindowBank {
 public:
  /// Throws std::invalid_argument for a zero capacity.
  explicit WindowBank(std::size_t capacity);

  /// (Re-)sizes to `units` empty windows.
  void reset(std::size_t units);

  /// Appends one sample to every window (`row[u]` to unit u's), evicting
  /// each window's oldest sample once full. Throws std::invalid_argument
  /// when `row` does not hold one sample per unit.
  void push(std::span<const double> row);

  std::size_t units() const { return units_; }
  /// Samples in every window.
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  bool full() const { return count_ == capacity_; }

  /// The i-th oldest sample of every window (i < size()), one per unit.
  const double* row(std::size_t i) const {
    std::size_t slot = oldest_ + i;
    if (slot >= capacity_) slot -= capacity_;
    return data_.data() + slot * units_;
  }
  /// The newest sample of every window (requires !empty()).
  const double* newest() const { return row(count_ - 1); }

  /// Unit `unit`'s i-th newest sample (i < size()); 0 is the newest.
  double at_back(std::size_t unit, std::size_t i) const {
    return row(count_ - 1 - i)[unit];
  }

  /// Copies unit `unit`'s window, oldest first, into out[0, size()).
  void copy_window(std::size_t unit, std::span<double> out) const;

  /// out[u] = the mean of unit u's window, summed oldest first as mean_of
  /// does (0 for empty windows). `out` must hold units() values.
  void means(std::span<double> out) const;

  /// Checkpoint support in the per-window format (see the class comment).
  /// load must follow a reset() with the same unit count. It throws
  /// std::runtime_error when a window holds more samples than the capacity
  /// or when the windows differ in length, which one shared head cannot
  /// represent.
  void save(ByteWriter& out) const;
  void load(ByteReader& in);

 private:
  std::size_t capacity_;
  std::size_t units_ = 0;
  std::size_t count_ = 0;
  /// Slot of the oldest sample; the next push writes slot oldest_ + count_
  /// (mod capacity).
  std::size_t oldest_ = 0;
  std::vector<double> data_;
};

}  // namespace dps
