#include "signal/peaks.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dps {

namespace {

// Longest window the two-sided exit handles; its suffix minima live in a
// stack buffer of this size. The priority module's window is 20 samples.
constexpr std::size_t kTwoSidedMaxLength = 64;

// Units per block of the bank exits, and the undecided lanes a block needs
// before its two-sided pass runs; with fewer, walking them one by one is
// cheaper. Traced on the benchmark's pair_grid and churn, a quarter of the
// block did no worse than half.
constexpr std::size_t kLaneBlock = 32;
constexpr double kTwoSidedMinUndecided = kLaneBlock / 4;

// The bank exits for units [first, first + lanes), lanes <= kLaneBlock,
// over a bank of n >= 3 samples. Each lane repeats provably_peakless's
// comparisons below, in its order. Flags are doubles set by selects so the
// lane loops vectorize, and each pass takes two rows at a time, which
// halves the loads and stores of the per-lane state.
void block_peakless(const WindowBank& bank, std::size_t first,
                    std::size_t lanes, double bar, double* peakless) {
  const std::size_t n = bank.size();
  double lo[kLaneBlock];
  double hi[kLaneBlock];
  double nan[kLaneBlock];
  double out[kLaneBlock];
  const double* s = bank.row(0) + first;
  for (std::size_t l = 0; l < lanes; ++l) {
    lo[l] = s[l];
    hi[l] = s[l];
    nan[l] = s[l] != s[l] ? 1.0 : 0.0;
  }
  std::size_t t = 1;
  for (; t + 1 < n; t += 2) {
    const double* a = bank.row(t) + first;
    const double* b = bank.row(t + 1) + first;
    for (std::size_t l = 0; l < lanes; ++l) {
      const double x = a[l];
      const double y = b[l];
      nan[l] = std::isunordered(x, y) ? 1.0 : nan[l];
      lo[l] = std::min(std::min(lo[l], x), y);
      hi[l] = std::max(std::max(hi[l], x), y);
    }
  }
  if (t < n) {
    s = bank.row(t) + first;
    for (std::size_t l = 0; l < lanes; ++l) {
      const double x = s[l];
      nan[l] = x != x ? 1.0 : nan[l];
      lo[l] = std::min(lo[l], x);
      hi[l] = std::max(hi[l], x);
    }
  }
  double undecided = 0.0;
  for (std::size_t l = 0; l < lanes; ++l) {
    const double wide = hi[l] - lo[l] > bar ? 1.0 : 0.0;
    out[l] = nan[l] == 0.0 ? 1.0 - wide : 0.0;
    undecided += nan[l] == 0.0 ? wide : 0.0;
  }
  if (n > kTwoSidedMaxLength || undecided < kTwoSidedMinUndecided) {
    std::copy(out, out + lanes, peakless);
    return;
  }

  double right_min[kTwoSidedMaxLength][kLaneBlock];
  s = bank.row(n - 1) + first;
  for (std::size_t l = 0; l < lanes; ++l) right_min[n - 1][l] = s[l];
  for (std::size_t i = n - 1; i-- > 0;) {
    s = bank.row(i) + first;
    const double* next = right_min[i + 1];
    for (std::size_t l = 0; l < lanes; ++l) {
      const double x = s[l];
      const double r = next[l];
      right_min[i][l] = std::min(x, r);
    }
  }
  double left_min[kLaneBlock];
  // Samples clearing both sides; nonzero means a peak may count.
  double hit[kLaneBlock];
  s = bank.row(0) + first;
  for (std::size_t l = 0; l < lanes; ++l) {
    left_min[l] = s[l];
    hit[l] = 0.0;
  }
  std::size_t i = 1;  // interior samples 1 .. n-2
  for (; i + 2 < n; i += 2) {
    const double* a = bank.row(i) + first;
    const double* b = bank.row(i + 1) + first;
    const double* right_a = right_min[i + 1];
    const double* right_b = right_min[i + 2];
    for (std::size_t l = 0; l < lanes; ++l) {
      const double v = a[l];
      const double w = b[l];
      double lmin = left_min[l];
      const double left_v = v - lmin > bar ? 1.0 : 0.0;
      const double hit_v = v - right_a[l] > bar ? left_v : 0.0;
      lmin = std::min(lmin, v);
      const double left_w = w - lmin > bar ? 1.0 : 0.0;
      const double hit_w = w - right_b[l] > bar ? left_w : 0.0;
      hit[l] = hit[l] + hit_v + hit_w;
      left_min[l] = std::min(lmin, w);
    }
  }
  if (i + 1 < n) {
    s = bank.row(i) + first;
    const double* right = right_min[i + 1];
    for (std::size_t l = 0; l < lanes; ++l) {
      const double v = s[l];
      const double left = v - left_min[l] > bar ? 1.0 : 0.0;
      hit[l] += v - right[l] > bar ? left : 0.0;
    }
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    out[l] = nan[l] == 0.0 && hit[l] == 0.0 ? 1.0 : out[l];
  }
  std::copy(out, out + lanes, peakless);
}

}  // namespace

// True when `series` provably holds no peak whose prominence exceeds
// `bar`. A counted peak of value v at interior index p has
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
  if (n < 3) return true;
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

void provably_peakless(const WindowBank& bank, double min_prominence,
                       std::span<double> peakless) {
  const std::size_t units = bank.units();
  if (peakless.size() != units) {
    throw std::invalid_argument("provably_peakless: one flag per unit");
  }
  if (bank.size() < 3) {
    std::fill(peakless.begin(), peakless.end(), 1.0);
    return;
  }
  for (std::size_t first = 0; first < units; first += kLaneBlock) {
    block_peakless(bank, first, std::min(kLaneBlock, units - first),
                   min_prominence, peakless.data() + first);
  }
}

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
