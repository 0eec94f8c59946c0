#include "thermal/thermal_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "thermal/thermal_config.hpp"
#include "util/rng.hpp"

namespace dps {

ThermalModel::ThermalModel(const ThermalConfig& config, int num_units)
    : config_(config) {
  check_section(thermal_section(), config_);
  if (num_units <= 0) {
    throw std::invalid_argument("ThermalModel: num_units must be > 0");
  }
  const auto n = static_cast<std::size_t>(num_units);
  resistance_.resize(n);
  tau_.resize(n);
  resist_mult_.assign(n, 1.0);
  temp_.assign(n, config_.ambient_c);
  sensed_.assign(n, config_.ambient_c);
  stuck_.assign(n, 0);
  // Each unit's parameters depend only on (seed, unit) — stable under any
  // unit count, same contract as the workload realizations.
  for (std::size_t u = 0; u < n; ++u) {
    Rng rng(mix_seed(config_.seed, u, 0x7ee2));
    const double j = config_.jitter_fraction;
    resistance_[u] = config_.resistance_c_per_w * (1.0 + rng.uniform(-j, j));
    tau_[u] = config_.time_constant_s * (1.0 + rng.uniform(-j, j));
  }
}

Celsius ThermalModel::step(Seconds dt, const std::vector<Watts>& true_power) {
  const auto n = temp_.size();
  Celsius hottest = std::numeric_limits<Celsius>::lowest();
  for (std::size_t u = 0; u < n; ++u) {
    const Celsius t_ss =
        config_.ambient_c + resistance_[u] * resist_mult_[u] * true_power[u];
    // Exact solution of C dT/dt = (T_ss - T)/R over one period.
    temp_[u] += (1.0 - std::exp(-dt / tau_[u])) * (t_ss - temp_[u]);
    if (stuck_[u] == 0) sensed_[u] = temp_[u];
    hottest = std::max(hottest, temp_[u]);
  }
  return hottest;
}

Celsius ThermalModel::temperature(int unit) const {
  return temp_[static_cast<std::size_t>(unit)];
}

Celsius ThermalModel::sensed(int unit) const {
  return sensed_[static_cast<std::size_t>(unit)];
}

void ThermalModel::set_resistance_multiplier(int unit, double multiplier) {
  resist_mult_[static_cast<std::size_t>(unit)] = multiplier;
}

void ThermalModel::set_sensor_stuck(int unit, bool stuck) {
  stuck_[static_cast<std::size_t>(unit)] = stuck ? 1 : 0;
}

Celsius ThermalModel::steady_state(int unit, Watts power) const {
  const auto u = static_cast<std::size_t>(unit);
  return config_.ambient_c + resistance_[u] * resist_mult_[u] * power;
}

}  // namespace dps
