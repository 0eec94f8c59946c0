#include "power/rapl_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace dps {

SimulatedRapl::SimulatedRapl(int num_units, const RaplSimConfig& config)
    : config_(config), noise_(config.noise_seed) {
  if (num_units <= 0) {
    throw std::invalid_argument("SimulatedRapl: num_units must be > 0");
  }
  if (config_.min_cap <= 0.0 || config_.min_cap > config_.tdp) {
    throw std::invalid_argument("SimulatedRapl: need 0 < min_cap <= tdp");
  }
  const auto n = static_cast<std::size_t>(num_units);
  energy_units_.assign(n, 0);
  window_elapsed_.assign(n, 0.0);
  last_read_counter_.assign(n, 0);
  last_power_reading_.assign(n, 0.0);
  requested_cap_.assign(n, config_.tdp);
  effective_cap_.assign(n, config_.tdp);
  if (config_.actuation_delay_steps > 0) {
    pending_caps_.assign(
        n * static_cast<std::size_t>(config_.actuation_delay_steps), 0.0);
    pending_len_.assign(n, 0);
  }
}

std::size_t SimulatedRapl::index_of(int unit) const {
  if (unit < 0 || unit >= num_units()) {
    throw std::out_of_range("SimulatedRapl: no unit " + std::to_string(unit));
  }
  return static_cast<std::size_t>(unit);
}

void SimulatedRapl::record(int unit, Watts true_power, Seconds dt) {
  const std::size_t i = index_of(unit);
  const Joules joules = std::max(0.0, true_power) * dt;
  energy_units_[i] += static_cast<std::uint64_t>(joules / config_.energy_unit);
  window_elapsed_[i] += dt;
}

void SimulatedRapl::record_batch(std::span<const Watts> true_power,
                                 Seconds dt) {
  if (true_power.size() != energy_units_.size()) {
    throw std::invalid_argument("record_batch: span size mismatch");
  }
  const Joules energy_unit = config_.energy_unit;
  for (std::size_t i = 0; i < energy_units_.size(); ++i) {
    const Joules joules = std::max(0.0, true_power[i]) * dt;
    // Same quantization as record(): joules / energy_unit, truncated.
    energy_units_[i] += static_cast<std::uint64_t>(joules / energy_unit);
    window_elapsed_[i] += dt;
  }
}

void SimulatedRapl::advance_step() {
  if (pending_len_.empty()) return;  // same-step actuation: no pipeline
  const auto depth = static_cast<std::size_t>(config_.actuation_delay_steps);
  for (std::size_t i = 0; i < pending_len_.size(); ++i) {
    int& len = pending_len_[i];
    if (len == 0) continue;
    Watts* fifo = &pending_caps_[i * depth];
    effective_cap_[i] = fifo[0];
    std::copy(fifo + 1, fifo + len, fifo);
    --len;
  }
}

Watts SimulatedRapl::effective_cap(int unit) const {
  return effective_cap_[index_of(unit)];
}

std::uint32_t SimulatedRapl::raw_energy_counter(int unit) const {
  // Wraps at 2^32.
  return static_cast<std::uint32_t>(energy_units_[index_of(unit)]);
}

void SimulatedRapl::set_obs(const obs::ObsSink& sink) {
  obs_reads_ = sink.counter("rapl_power_reads_total",
                            "read_power calls against the simulated RAPL");
  obs_cap_requests_ = sink.counter("rapl_cap_requests_total",
                                   "set_cap calls (including no-op re-sends)");
  obs_cap_changes_ = sink.counter(
      "rapl_cap_changes_total", "set_cap calls that moved the requested cap");
}

Watts SimulatedRapl::read_power_unit(std::size_t i) {
  if (window_elapsed_[i] <= 0.0) return last_power_reading_[i];

  // Delta of the wrapped 32-bit counter; unsigned arithmetic handles one
  // wrap per window, as real RAPL readers must.
  const std::uint32_t now = static_cast<std::uint32_t>(energy_units_[i]);
  const std::uint32_t delta = now - last_read_counter_[i];
  last_read_counter_[i] = now;

  const Joules joules = static_cast<Joules>(delta) * config_.energy_unit;
  Watts power = joules / window_elapsed_[i];
  window_elapsed_[i] = 0.0;

  if (config_.noise_fraction > 0.0) {
    power *= 1.0 + noise_.normal(0.0, config_.noise_fraction);
    power = std::max(0.0, power);
  }
  last_power_reading_[i] = power;
  return power;
}

Watts SimulatedRapl::read_power(int unit) {
  if (obs_reads_ != nullptr) obs_reads_->add();
  return read_power_unit(index_of(unit));
}

void SimulatedRapl::read_power_batch(std::span<Watts> out) {
  if (out.size() != energy_units_.size()) {
    throw std::invalid_argument("read_power_batch: span size mismatch");
  }
  if (obs_reads_ != nullptr) obs_reads_->add(out.size());
  // Ascending unit order: the shared noise stream draws in exactly the
  // order the per-unit loop would.
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = read_power_unit(i);
}

void SimulatedRapl::set_cap_unit(std::size_t i, Watts cap) {
  const Watts clamped = std::clamp(cap, config_.min_cap, config_.tdp);
  if (obs_cap_requests_ != nullptr) {
    obs_cap_requests_->add();
    if (clamped != requested_cap_[i]) obs_cap_changes_->add();
  }
  requested_cap_[i] = clamped;
  if (pending_len_.empty()) {
    effective_cap_[i] = clamped;
    return;
  }
  // Model a fixed-depth actuation pipeline: the FIFO is topped up to full
  // depth with its last entry (the effective cap when empty) and the
  // request lands at the back; advance_step() pops one entry per step.
  const int depth = config_.actuation_delay_steps;
  Watts* fifo = &pending_caps_[i * static_cast<std::size_t>(depth)];
  int& len = pending_len_[i];
  const Watts fill = len == 0 ? effective_cap_[i] : fifo[len - 1];
  std::fill(fifo + len, fifo + depth, fill);
  len = depth;
  fifo[depth - 1] = clamped;
}

void SimulatedRapl::set_cap(int unit, Watts cap) {
  set_cap_unit(index_of(unit), cap);
}

void SimulatedRapl::set_cap_batch(std::span<const Watts> caps) {
  if (caps.size() != requested_cap_.size()) {
    throw std::invalid_argument("set_cap_batch: span size mismatch");
  }
  for (std::size_t i = 0; i < caps.size(); ++i) set_cap_unit(i, caps[i]);
}

void SimulatedRapl::effective_caps_batch(std::span<Watts> out) const {
  if (out.size() != effective_cap_.size()) {
    throw std::invalid_argument("effective_caps_batch: span size mismatch");
  }
  std::copy(effective_cap_.begin(), effective_cap_.end(), out.begin());
}

Watts SimulatedRapl::cap(int unit) const {
  return requested_cap_[index_of(unit)];
}

}  // namespace dps
