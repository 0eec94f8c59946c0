#pragma once

#include <cstdint>
#include <vector>

#include "power/power_interface.hpp"

namespace dps {

/// Degrees Celsius (package temperature, ambient offsets, trip points).
using Celsius = double;

/// Parameters of the per-unit RC thermal model and its throttle governor
/// (src/thermal/). Defaults describe the paper's 165 W socket under a
/// healthy heatsink: at the constant 110 W cap the package settles around
/// 74 °C, at TDP around 99 °C — so the default 95 °C trip only bites when
/// a unit runs hot for a sustained window or its cooling degrades.
struct ThermalConfig {
  /// Inlet/ambient temperature [°C]; also the initial package temperature.
  Celsius ambient_c = 25.0;
  /// Thermal resistance junction-to-ambient [°C/W]: steady-state rise per
  /// dissipated watt.
  double resistance_c_per_w = 0.45;
  /// RC time constant [s] — how fast the package approaches steady state.
  Seconds time_constant_s = 60.0;
  /// Governor trips (force-caps the unit) when the *sensed* temperature
  /// reaches this [°C].
  Celsius trip_c = 95.0;
  /// Governor releases the unit once sensed temperature falls back to
  /// this [°C]. Must be strictly below trip_c (hysteresis band).
  Celsius clear_c = 85.0;
  /// Cap forced while a unit is throttled [W]. Kept above the RAPL floor
  /// (40 W) and the model's static power (20 W) so throttled units still
  /// make progress — the realistic firmware behavior, and what makes the
  /// actuator *contested* rather than simply dead.
  Watts throttle_cap_w = 60.0;
  /// Relative per-unit jitter on R and tau (uniform in ±fraction), so no
  /// two sockets share exactly one thermal envelope.
  double jitter_fraction = 0.05;
  /// Seed for the per-unit parameter jitter.
  std::uint64_t seed = 42;
};

/// First-order RC thermal model, one node per unit. Each step advances the
/// package temperature toward its steady state with the *exact* exponential
/// update
///
///   T_ss = ambient + R_u * mult_u * P
///   T   += (1 - exp(-dt / tau_u)) * (T_ss - T)
///
/// so the discretization is stable at any dt and matches the closed-form
/// step response T(t) = ambient + R*P*(1 - exp(-t/tau)) exactly (the
/// thermal unit tests assert this). R_u and tau_u carry seeded per-unit
/// jitter; mult_u is the fan-degradation fault hook (1.0 = healthy).
class ThermalModel {
 public:
  ThermalModel(const ThermalConfig& config, int num_units);

  /// Advances every unit one period under the dissipated true power.
  /// Returns the hottest *true* package temperature after the step, so
  /// the engine's peak tracking rides the same pass.
  Celsius step(Seconds dt, const std::vector<Watts>& true_power);

  /// Physical package temperature of a unit.
  Celsius temperature(int unit) const;
  /// What the governor reads: equal to temperature() normally, frozen at
  /// the last reading while the unit's sensor is stuck.
  Celsius sensed(int unit) const;

  /// Fan-degradation hook: scales the unit's thermal resistance (>= 1
  /// means worse cooling). FaultInjector resets it to exactly 1.0 when the
  /// last overlapping fault clears.
  void set_resistance_multiplier(int unit, double multiplier);
  /// Stuck-sensor hook: while true, sensed(unit) stops tracking
  /// temperature(unit).
  void set_sensor_stuck(int unit, bool stuck);

  /// Steady-state temperature of a unit at the given dissipated power,
  /// including its jittered R and current fault multiplier.
  Celsius steady_state(int unit, Watts power) const;

  int num_units() const { return static_cast<int>(temp_.size()); }
  const ThermalConfig& config() const { return config_; }

 private:
  ThermalConfig config_;
  std::vector<double> resistance_;   // per-unit jittered R [°C/W]
  std::vector<Seconds> tau_;         // per-unit jittered time constant
  std::vector<double> resist_mult_;  // fan-degradation factor, 1 = healthy
  std::vector<Celsius> temp_;
  std::vector<Celsius> sensed_;
  std::vector<char> stuck_;
};

}  // namespace dps
