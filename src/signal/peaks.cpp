#include "signal/peaks.hpp"

#include <algorithm>
#include <cmath>

namespace dps {

namespace {

// Longest window the two-sided exit handles; its suffix minima live in a
// stack buffer of this size. The priority module's window is 20 samples.
constexpr std::size_t kTwoSidedMaxLength = 64;

// True when `series` (n >= 3) provably holds no peak whose prominence
// exceeds `bar`. A counted peak of value v at interior index p has
// witnesses s[l], l < p, and s[r], r > p, with v - s[l] > bar and
// v - s[r] > bar. (When v itself clears a negative bar, its neighbours,
// which are no higher, clear it too.) Round-to-nearest subtraction is
// monotone (x <= y implies v - x >= v - y, and v <= w implies
// v - x <= w - x), so then
//   max - min          >= v - s[l] > bar   (range exit), and
//   v - min(s[0..p))   >= v - s[l] > bar,
//   v - min(s(p..n))   >= v - s[r] > bar   (two-sided exit).
// A window failing either test therefore counts 0, for any sign of the
// bar. The argument needs every comparison ordered, so a window holding a
// NaN is never declared peakless.
bool provably_peakless(std::span<const double> series, double bar) {
  const std::size_t n = series.size();
  double lo = series[0];
  double hi = series[0];
  for (const double x : series) {
    if (std::isnan(x)) return false;
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  if (!(hi - lo > bar)) return true;
  if (n > kTwoSidedMaxLength) return false;

  double right_min[kTwoSidedMaxLength];
  right_min[n - 1] = series[n - 1];
  for (std::size_t i = n - 1; i-- > 0;) {
    right_min[i] = std::min(series[i], right_min[i + 1]);
  }
  double left_min = series[0];
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const double v = series[i];
    if (v - left_min > bar && v - right_min[i + 1] > bar) return false;
    left_min = std::min(left_min, v);
  }
  return true;
}

}  // namespace

std::vector<Peak> find_prominent_peaks(std::span<const double> series) {
  std::vector<Peak> peaks;
  const std::size_t n = series.size();
  if (n < 3) return peaks;

  // Locate local maxima, treating plateaus as a single peak at their middle.
  std::size_t i = 1;
  while (i < n - 1) {
    if (series[i] <= series[i - 1]) {
      ++i;
      continue;
    }
    // series[i] > series[i-1]: walk any plateau.
    std::size_t j = i;
    while (j < n - 1 && series[j + 1] == series[i]) ++j;
    if (j < n - 1 && series[j + 1] < series[i]) {
      peaks.push_back(Peak{(i + j) / 2, series[i], 0.0});
    }
    i = j + 1;
  }

  // Prominence: for each peak, scan left and right until a strictly higher
  // sample (or the window edge); the base on each side is the minimum seen.
  // Prominence = peak - max(left base, right base).
  for (auto& peak : peaks) {
    double left_base = peak.value;
    for (std::size_t k = peak.index; k-- > 0;) {
      if (series[k] > peak.value) break;
      left_base = std::min(left_base, series[k]);
    }
    double right_base = peak.value;
    for (std::size_t k = peak.index + 1; k < n; ++k) {
      if (series[k] > peak.value) break;
      right_base = std::min(right_base, series[k]);
    }
    peak.prominence = peak.value - std::max(left_base, right_base);
  }
  return peaks;
}

std::size_t count_prominent_peaks(std::span<const double> series,
                                  double min_prominence, std::size_t limit) {
  // Same peak/prominence definitions as find_prominent_peaks, fused into
  // one allocation-free pass: this runs once per unit per decision step in
  // the priority module, so it must not touch the heap.
  //
  // The qualification test short-circuits: prominence exceeds the bar iff
  // BOTH side bases do (max(l, r) small enough), and a side's base does iff
  // any sample before that side's strictly-higher stop does — FP
  // subtraction is monotonic, so testing samples as they stream is exactly
  // the min-then-subtract of find_prominent_peaks.
  const std::size_t n = series.size();
  if (n < 3 || limit == 0) return 0;
  if (provably_peakless(series, min_prominence)) return 0;

  std::size_t count = 0;
  std::size_t i = 1;
  while (i < n - 1) {
    if (series[i] <= series[i - 1]) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < n - 1 && series[j + 1] == series[i]) ++j;
    if (j < n - 1 && series[j + 1] < series[i]) {
      const std::size_t index = (i + j) / 2;
      const double value = series[i];
      // Each side's base starts at the peak value, as in
      // find_prominent_peaks. That decides a verdict only for a negative
      // bar next to NaN samples; otherwise a neighbour, no higher than the
      // peak, clears that bar as well.
      const bool self_clears = value - value > min_prominence;
      bool left_ok = self_clears;
      for (std::size_t k = index; !left_ok && k-- > 0;) {
        if (series[k] > value) break;
        left_ok = value - series[k] > min_prominence;
      }
      bool right_ok = self_clears;
      for (std::size_t k = index + 1; left_ok && !right_ok && k < n; ++k) {
        if (series[k] > value) break;
        right_ok = value - series[k] > min_prominence;
      }
      if (left_ok && right_ok && ++count >= limit) return count;
    }
    i = j + 1;
  }
  return count;
}

}  // namespace dps
