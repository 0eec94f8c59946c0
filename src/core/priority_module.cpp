#include "core/priority_module.hpp"

#include <algorithm>

#include "signal/peaks.hpp"

namespace dps {

PriorityModule::PriorityModule(const DpsConfig& config) : config_(config) {}

void PriorityModule::reset(int num_units) {
  high_freq_.assign(static_cast<std::size_t>(num_units), false);
  priority_.assign(static_cast<std::size_t>(num_units), false);
  idle_streak_.assign(static_cast<std::size_t>(num_units), 0);
}

void PriorityModule::update(const EstimatedPowerHistory& history,
                            std::span<const Watts> caps) {
  for (int u = 0; u < history.num_units(); ++u) {
    const auto& window = history.power_history(u);

    // Stale-priority demotion (see header).
    if (priority_[u] && !window.empty() &&
        window.at_back(0) < config_.idle_demote_fraction * caps[u]) {
      if (static_cast<std::size_t>(++idle_streak_[u]) >=
          config_.idle_demote_steps) {
        priority_[u] = false;
        high_freq_[u] = false;
        idle_streak_[u] = 0;
      }
    } else {
      idle_streak_[u] = 0;
    }
    // The count only feeds the threshold comparisons below, so cap it at
    // threshold + 1: every predicate is unchanged and the counter stops
    // scanning once the verdict is decided.
    const auto pp_count = [&] {
      return count_prominent_peaks(window.contents(), config_.peak_prominence,
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
      if (window.stddev() < config_.std_threshold &&
          pp_count() < config_.peak_count_threshold) {
        high_freq_[u] = false;
        priority_[u] = false;
        continue;
      }
    }

    // Derivative classification for low-frequency units (lines 15-22).
    if (!high_freq_[u]) {
      const double avg_deriv = window.avg_derivative(
          history.duration_history(u), config_.deriv_length);
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
