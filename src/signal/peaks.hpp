#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "signal/window_bank.hpp"

namespace dps {

/// A local maximum in a series together with its topographic prominence —
/// how far the signal must descend from the peak before rising to a higher
/// value (or hitting the window edge). This mirrors
/// scipy.signal.peak_prominences, which the paper's artifact uses for the
/// priority module's high-frequency detection (Palshikar-style peak
/// detection, paper ref [32]).
struct Peak {
  std::size_t index;
  double value;
  double prominence;
};

/// Finds all strict-then-flat local maxima of `series` and computes each
/// one's prominence. Plateaus report their middle sample, matching scipy.
/// Windows shorter than 3 samples contain no peaks.
std::vector<Peak> find_prominent_peaks(std::span<const double> series);

/// Counts peaks whose prominence strictly exceeds `min_prominence`. This is
/// Algorithm 2's count_prominent_peaks(power_history, threshold), and it
/// equals counting find_prominent_peaks' result on every input.
///
/// Two exact early exits return 0 before the peak walk: when the window's
/// max - min is not above the bar (range exit), and, for windows of at most
/// 64 samples, when no interior sample is more than the bar above both the
/// minimum before it and the minimum after it (two-sided exit). Any counted
/// peak would pass both tests, because rounded subtraction is monotone.
/// A window holding a NaN skips the exits, since its comparisons are
/// unordered. Most priority-module windows are flat Kalman estimates and
/// leave through one of the exits.
///
/// `limit` caps the count: once reached, the scan stops and `limit` is
/// returned. Callers that only compare the count against a threshold (the
/// priority module's hysteresis) pass threshold + 1 — every comparison
/// outcome is unchanged and the common high-frequency window exits early.
std::size_t count_prominent_peaks(
    std::span<const double> series, double min_prominence,
    std::size_t limit = static_cast<std::size_t>(-1));

/// count_prominent_peaks' two early exits on their own: true when `series`
/// passes the range exit or the two-sided exit, and so provably counts 0
/// peaks above `min_prominence`. False for a window of 3 or more samples
/// holding a NaN; true for any window of fewer than 3.
bool provably_peakless(std::span<const double> series, double min_prominence);

/// The same exits for every window of `bank` at once, run lane by lane over
/// blocks of 32 units: peakless[u] becomes 1.0 when unit u's window
/// provably counts 0 peaks above `min_prominence`, else 0.0. The range exit
/// runs on every lane. The two-sided exit runs only in blocks where at
/// least a quarter of a block's lanes are still undecided after it, and
/// only on windows of at most 64 samples, so a 0.0 lane may still count
/// 0: the caller walks it with count_prominent_peaks. Each lane makes the
/// scalar exits' comparisons with the same std::min/std::max operand order,
/// so a 1.0 is exactly a scalar "peakless" and a lane holding a NaN is
/// never peakless. Windows of fewer than 3 samples count 0 whatever they
/// hold and are all 1.0. `peakless` must hold bank.units() values.
void provably_peakless(const WindowBank& bank, double min_prominence,
                       std::span<double> peakless);

}  // namespace dps
