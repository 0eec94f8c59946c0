#include "core/priority_module.hpp"

#include <algorithm>
#include <stdexcept>

#include "signal/peaks.hpp"

namespace dps {

PriorityModule::PriorityModule(const DpsConfig& config) : config_(config) {}

void PriorityModule::reset(int num_units) {
  high_freq_.assign(static_cast<std::size_t>(num_units), false);
  priority_.assign(static_cast<std::size_t>(num_units), false);
  idle_streak_.assign(static_cast<std::size_t>(num_units), 0);
  peakless_.assign(static_cast<std::size_t>(num_units), 0.0);
}

void PriorityModule::update(const EstimatedPowerHistory& history,
                            std::span<const Watts> caps) {
  const WindowBank& bank = history.power_windows();
  const std::size_t n = bank.units();
  if (priority_.size() != n || caps.size() != n) {
    throw std::invalid_argument("PriorityModule::update: unit count mismatch");
  }
  if (n == 0) return;
  const std::size_t samples = bank.size();
  const double* newest = samples > 0 ? bank.newest() : nullptr;
  if (window_.size() < samples) window_.resize(samples);

  // The exits settle most windows for all units at once; only the rest
  // are gathered and walked by the scalar count.
  provably_peakless(bank, config_.peak_prominence, peakless_);

  // Algorithm 2's avg_direv: every window and the shared duration window
  // are pushed together, so its span and elapsed time are the same for all
  // units (RollingWindow::avg_derivative, hoisted out of the unit loop).
  const RollingWindow& durations = history.duration_history(0);
  std::size_t deriv_span = 0;
  double elapsed = 0.0;
  if (config_.deriv_length >= 2) {
    const std::size_t have =
        std::min({config_.deriv_length, samples, durations.size()});
    for (std::size_t i = 0; i + 1 < have; ++i) {
      elapsed += durations.at_back(i);
    }
    if (have >= 2 && elapsed > 0.0) deriv_span = have;
  }

  for (std::size_t u = 0; u < n; ++u) {
    // Stale-priority demotion (see header).
    if (priority_[u] && samples > 0 &&
        newest[u] < config_.idle_demote_fraction * caps[u]) {
      if (static_cast<std::size_t>(++idle_streak_[u]) >=
          config_.idle_demote_steps) {
        priority_[u] = false;
        high_freq_[u] = false;
        idle_streak_[u] = 0;
      }
    } else {
      idle_streak_[u] = 0;
    }
    // The window, oldest first, gathered on first use.
    std::span<const double> window;
    const auto gathered = [&] {
      if (window.size() != samples) {
        bank.copy_window(u, window_);
        window = std::span<const double>(window_.data(), samples);
      }
      return window;
    };
    // The count only feeds the threshold comparisons below, so cap it at
    // threshold + 1: every predicate is unchanged and the counter stops
    // scanning once the verdict is decided.
    const auto pp_count = [&]() -> std::size_t {
      if (peakless_[u] != 0.0) return 0;
      return count_prominent_peaks(gathered(), config_.peak_prominence,
                                   config_.peak_count_threshold + 1);
    };

    // Frequency classification with hysteresis (Algorithm 2, lines 5-14).
    // Both clearing tests are pure, so their order changes no outcome. The
    // std-dev goes first: a high-frequency history almost always still
    // varies, and then its peak count is never needed.
    if (!high_freq_[u]) {
      if (pp_count() > config_.peak_count_threshold) {
        high_freq_[u] = true;
        priority_[u] = true;
        continue;
      }
    } else {
      if (stddev_of(gathered()) < config_.std_threshold &&
          pp_count() < config_.peak_count_threshold) {
        high_freq_[u] = false;
        priority_[u] = false;
        continue;
      }
    }

    // Derivative classification for low-frequency units (lines 15-22).
    if (!high_freq_[u]) {
      const double avg_deriv =
          deriv_span == 0
              ? 0.0
              : (newest[u] - bank.at_back(u, deriv_span - 1)) / elapsed;
      if (avg_deriv > config_.deriv_inc_threshold) {
        priority_[u] = true;
      } else if (avg_deriv < config_.deriv_dec_threshold) {
        priority_[u] = false;
      }
      // Otherwise: keep the current priority until power moves again.
    }
  }
}

void PriorityModule::save(ByteWriter& out) const {
  out.bools(high_freq_);
  out.bools(priority_);
  out.ints(idle_streak_);
}

void PriorityModule::load(ByteReader& in) {
  auto high_freq = in.bools();
  auto priority = in.bools();
  auto idle_streak = in.ints();
  if (high_freq.size() != high_freq_.size() ||
      priority.size() != priority_.size() ||
      idle_streak.size() != idle_streak_.size()) {
    throw std::runtime_error("PriorityModule: snapshot unit count mismatch");
  }
  high_freq_ = std::move(high_freq);
  priority_ = std::move(priority);
  idle_streak_ = std::move(idle_streak);
}

bool PriorityModule::high_priority(int unit) const {
  return priority_.at(static_cast<std::size_t>(unit));
}

bool PriorityModule::high_frequency(int unit) const {
  return high_freq_.at(static_cast<std::size_t>(unit));
}

int PriorityModule::count_high() const {
  return static_cast<int>(
      std::count(priority_.begin(), priority_.end(), true));
}

}  // namespace dps
