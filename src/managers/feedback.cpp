#include "managers/feedback.hpp"

#include <algorithm>
#include <stdexcept>

namespace dps {

FeedbackManager::FeedbackManager(const FeedbackConfig& config)
    : config_(config) {
  if (config_.gain <= 0.0 || config_.gain > 1.0 ||
      config_.pinch_fraction <= 0.0 || config_.pinch_fraction >= 1.0) {
    throw std::invalid_argument("FeedbackConfig: invalid parameters");
  }
}

void FeedbackManager::reset(const ManagerContext& ctx) { ctx_ = ctx; }

void FeedbackManager::decide(std::span<const Watts> power,
                             std::span<Watts> caps) {
  const std::size_t n = caps.size();
  if (power.size() != n || n != static_cast<std::size_t>(ctx_.num_units)) {
    throw std::invalid_argument("FeedbackManager::decide: size mismatch");
  }

  // Hardware sanity + shedding any overshoot a budget cut left behind.
  for (std::size_t u = 0; u < n; ++u) {
    caps[u] = std::min(caps[u], ctx_.tdp_of(static_cast<int>(u)));
  }
  enforce_budget(caps, ctx_.total_budget, ctx_.min_cap);

  // Withdraw gain-scaled slack from comfortable units into the pool. Any
  // budget already unassigned joins it.
  Watts cap_sum = 0.0;
  for (const Watts c : caps) cap_sum += c;
  Watts pool = std::max(0.0, ctx_.total_budget - cap_sum);

  std::vector<double> pressure(n, 0.0);
  double total_pressure = 0.0;
  for (std::size_t u = 0; u < n; ++u) {
    const Watts slack = caps[u] - power[u];
    if (slack > caps[u] * config_.pinch_fraction) {
      const Watts withdrawable =
          std::min(config_.gain * slack,
                   caps[u] - std::max(power[u] + config_.slack_margin,
                                      ctx_.min_cap));
      if (withdrawable > 0.0) {
        caps[u] -= withdrawable;
        pool += withdrawable;
      }
    } else {
      // Constrained: pressure grows as slack vanishes.
      pressure[u] = 1.0 - std::max(0.0, slack) /
                              std::max(1e-9, caps[u] * config_.pinch_fraction);
      total_pressure += pressure[u];
    }
  }

  if (total_pressure <= 0.0 || pool <= 0.0) return;

  // Deal the pool to constrained units proportionally to their pressure,
  // renormalizing as units saturate at TDP.
  for (int pass = 0; pass < 4 && pool > 1e-9; ++pass) {
    double live_pressure = 0.0;
    for (std::size_t u = 0; u < n; ++u) {
      if (pressure[u] > 0.0 && caps[u] < ctx_.tdp_of(static_cast<int>(u))) {
        live_pressure += pressure[u];
      }
    }
    if (live_pressure <= 0.0) break;
    Watts dealt = 0.0;
    for (std::size_t u = 0; u < n; ++u) {
      const Watts unit_tdp = ctx_.tdp_of(static_cast<int>(u));
      if (pressure[u] <= 0.0 || caps[u] >= unit_tdp) continue;
      const Watts share = pool * pressure[u] / live_pressure;
      const Watts new_cap = std::min(unit_tdp, caps[u] + share);
      dealt += new_cap - caps[u];
      caps[u] = new_cap;
    }
    pool -= dealt;
    if (dealt <= 1e-12) break;
  }
}

}  // namespace dps
