#include "thermal/governor.hpp"

#include <algorithm>
#include <stdexcept>

#include "thermal/thermal_config.hpp"

namespace dps {

ThrottleGovernor::ThrottleGovernor(const ThermalConfig& config, int num_units)
    : config_(config) {
  check_section(thermal_section(), config_);
  if (num_units <= 0) {
    throw std::invalid_argument("ThrottleGovernor: num_units must be > 0");
  }
  const auto n = static_cast<std::size_t>(num_units);
  throttled_.assign(n, 0);
  throttle_since_.assign(n, 0.0);
  time_over_trip_.assign(n, 0.0);
}

void ThrottleGovernor::set_obs(const obs::ObsSink& obs) {
  obs_ = obs;
  obs_trips_ = obs.counter("thermal_trips_total",
                           "Thermal trip events (governor engaged)");
  obs_transitions_ = obs.counter(
      "thermal_throttle_events_total",
      "Throttle engage/release transitions the governor performed");
  obs_throttled_ =
      obs.gauge("thermal_throttled_units", "Units currently force-capped");
  obs_shed_ws_ = obs.gauge(
      "thermal_shed_watt_seconds",
      "Watt-seconds of requested cap the governor shed so far");
  obs_trip_temp_ = obs.histogram(
      "thermal_trip_temperature_c", {85.0, 90.0, 95.0, 100.0, 110.0, 125.0},
      "Sensed temperature at each thermal trip [Celsius]");
}

void ThrottleGovernor::apply(const ThermalModel& model, Seconds now,
                             Seconds dt, const std::vector<Watts>& requested,
                             std::vector<Watts>& applied) {
  const auto n = throttled_.size();
  int active = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const int unit = static_cast<int>(u);
    const Celsius seen = model.sensed(unit);
    if (throttled_[u] == 0 && seen >= config_.trip_c) {
      throttled_[u] = 1;
      throttle_since_[u] = now;
      ++trip_events_;
      if (obs_trips_ != nullptr) obs_trips_->add();
      if (obs_transitions_ != nullptr) obs_transitions_->add();
      if (obs_trip_temp_ != nullptr) obs_trip_temp_->observe(seen);
      obs_.event(obs::EventKind::kThermalTrip, unit, seen, config_.trip_c);
      obs_.event(obs::EventKind::kThrottleOn, unit, config_.throttle_cap_w,
                 requested[u]);
    } else if (throttled_[u] != 0 && seen <= config_.clear_c) {
      throttled_[u] = 0;
      if (obs_transitions_ != nullptr) obs_transitions_->add();
      obs_.event(obs::EventKind::kThrottleOff, unit, seen,
                 now - throttle_since_[u]);
    }

    if (throttled_[u] != 0) {
      ++active;
      applied[u] = std::min(requested[u], config_.throttle_cap_w);
      shed_ws_ += (requested[u] - applied[u]) * dt;
      throttled_time_ += dt;
    } else {
      applied[u] = requested[u];
    }
    // Ledger against the physics, not the (possibly stuck) sensor.
    if (model.temperature(unit) >= config_.trip_c) time_over_trip_[u] += dt;
  }
  if (obs_throttled_ != nullptr) obs_throttled_->set(active);
  if (obs_shed_ws_ != nullptr) obs_shed_ws_->set(shed_ws_);
}

bool ThrottleGovernor::throttled(int unit) const {
  return throttled_[static_cast<std::size_t>(unit)] != 0;
}

}  // namespace dps
