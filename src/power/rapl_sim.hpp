#pragma once

#include <cstdint>
#include <vector>

#include "obs/sink.hpp"
#include "power/power_interface.hpp"
#include "util/rng.hpp"

namespace dps {

/// Configuration of the simulated RAPL package domain. Defaults model the
/// paper's Intel Xeon Gold 6240 sockets (TDP 165 W) and the measurement
/// behaviour reported in "RAPL in Action" (paper ref [23]): accurate but
/// noisy readings from a wrapping 32-bit energy counter with a fixed energy
/// resolution.
struct RaplSimConfig {
  Watts tdp = 165.0;
  Watts min_cap = 40.0;
  /// Std-dev of multiplicative measurement noise (fraction of true power).
  /// The paper "pessimistically assumes RAPL bares certain measurement
  /// noise", which is exactly what the Kalman filter exists to absorb.
  double noise_fraction = 0.02;
  /// RAPL energy status unit: 1 / 2^14 J ≈ 61 µJ on Xeon parts.
  Joules energy_unit = 1.0 / 16384.0;
  /// Steps of delay before a requested cap takes hardware effect. Real RAPL
  /// applies limits within one control window (~1 ms — under the 1 s
  /// decision loop), so the default is same-step; the ablation bench raises
  /// it to study slow actuation.
  int actuation_delay_steps = 0;
  std::uint64_t noise_seed = 0xda7a5eedULL;
};

/// Simulated RAPL for a set of power-capping units. The simulation engine
/// drives it: each timestep it accumulates every unit's true energy via
/// record(); the power manager on top observes it only through the
/// PowerInterface — quantized, wrapping energy counters plus gaussian
/// reading noise, exactly the telemetry a real controller would get.
class SimulatedRapl final : public PowerInterface {
 public:
  SimulatedRapl(int num_units, const RaplSimConfig& config = {});

  // --- Simulation-facing side (not visible through PowerInterface) ---

  /// Accumulates `true_power * dt` joules of consumption for `unit` and
  /// advances that unit's measurement window by `dt`. Also steps the cap
  /// actuation pipeline once per full step (call advance_step() after all
  /// units are recorded).
  void record(int unit, Watts true_power, Seconds dt);

  /// Batched record: one pass over all units (size must be num_units()),
  /// equivalent to record(u, true_power[u], dt) for u = 0..n-1.
  void record_batch(std::span<const Watts> true_power, Seconds dt);

  /// Advances the cap actuation pipeline one decision step.
  void advance_step();

  /// The cap the hardware is currently enforcing (after actuation delay).
  Watts effective_cap(int unit) const;

  /// Batched effective caps: fills `out` (size must be num_units()) with
  /// effective_cap(u) for u = 0..n-1 in one pass.
  void effective_caps_batch(std::span<Watts> out) const;

  /// Raw wrapped counter value, in energy units, as software would read
  /// from MSR_PKG_ENERGY_STATUS. Exposed for tests.
  std::uint32_t raw_energy_counter(int unit) const;

  /// Counts power reads, cap requests, and caps that actually moved into
  /// the sink's registry (rapl_power_reads_total / rapl_cap_requests_total
  /// / rapl_cap_changes_total). A disabled sink costs one null check.
  void set_obs(const obs::ObsSink& sink);

  // --- PowerInterface ---
  int num_units() const override {
    return static_cast<int>(requested_cap_.size());
  }
  Watts read_power(int unit) override;
  void set_cap(int unit, Watts cap) override;
  Watts cap(int unit) const override;
  Watts tdp() const override { return config_.tdp; }
  Watts min_cap() const override { return config_.min_cap; }
  // Tight single-pass overrides; bit-identical to the default per-unit
  // loops (same noise-draw and counter order).
  void read_power_batch(std::span<Watts> out) override;
  void set_cap_batch(std::span<const Watts> caps) override;

 private:
  /// `unit` as an index, or std::out_of_range.
  std::size_t index_of(int unit) const;
  Watts read_power_unit(std::size_t i);
  void set_cap_unit(std::size_t i, Watts cap);

  RaplSimConfig config_;
  // Per-unit state as parallel arrays (index = unit), so each batch call
  // streams only the fields it touches.
  std::vector<std::uint64_t> energy_units_;  // unwrapped, in energy units
  std::vector<Seconds> window_elapsed_;
  std::vector<std::uint32_t> last_read_counter_;
  std::vector<Watts> last_power_reading_;
  std::vector<Watts> requested_cap_;
  std::vector<Watts> effective_cap_;
  // Actuation pipeline, allocated only when actuation_delay_steps > 0:
  // unit u's FIFO is pending_caps_[u * delay, u * delay + pending_len_[u]),
  // front first.
  std::vector<Watts> pending_caps_;
  std::vector<int> pending_len_;
  Rng noise_;
  obs::Counter* obs_reads_ = nullptr;
  obs::Counter* obs_cap_requests_ = nullptr;
  obs::Counter* obs_cap_changes_ = nullptr;
};

}  // namespace dps
