#include "core/history.hpp"

#include <stdexcept>

namespace dps {

EstimatedPowerHistory::EstimatedPowerHistory(const DpsConfig& config)
    : config_(config),
      filters_(config.kf_process_variance, config.kf_measurement_variance),
      power_(config.history_length < 3 ? 3 : config.history_length),
      durations_(config.history_length < 3 ? 3 : config.history_length) {
  if (config_.history_length < 3) {
    throw std::invalid_argument(
        "EstimatedPowerHistory: history_length must be >= 3");
  }
}

void EstimatedPowerHistory::reset(int num_units) {
  filters_.reset(static_cast<std::size_t>(num_units));
  power_.reset(static_cast<std::size_t>(num_units));
  durations_.clear();
  row_.assign(static_cast<std::size_t>(num_units), 0.0);
  first_observation_ = true;
}

void EstimatedPowerHistory::observe(std::span<const Watts> measured,
                                    Seconds dt) {
  const std::size_t n = filters_.size();
  if (measured.size() != n) {
    throw std::invalid_argument("observe: measurement count mismatch");
  }
  if (config_.use_kalman_filter) {
    if (first_observation_) {
      // Seed the filters at the first readings so they do not have to
      // converge from zero.
      filters_.seed(measured, config_.kf_measurement_variance);
    } else {
      // One contiguous predict/update pass over the whole bank.
      filters_.update(measured);
    }
    power_.push(filters_.estimates());
  } else {
    for (std::size_t u = 0; u < n; ++u) {
      double estimate = measured[u];
      if (config_.ewma_alpha > 0.0 && !first_observation_) {
        // EWMA ablation: first-order low-pass around the previous estimate.
        const double previous = power_.at_back(u, 0);
        estimate = previous + config_.ewma_alpha * (measured[u] - previous);
      }
      row_[u] = estimate;
    }
    power_.push(row_);
  }
  durations_.push(dt);
  first_observation_ = false;
}

Watts EstimatedPowerHistory::estimate(int unit) const {
  if (unit < 0 || unit >= num_units()) {
    throw std::out_of_range("estimate: unit out of range");
  }
  return power_.empty() ? 0.0
                        : power_.at_back(static_cast<std::size_t>(unit), 0);
}

std::vector<double> EstimatedPowerHistory::power_history(int unit) const {
  if (unit < 0 || unit >= num_units()) {
    throw std::out_of_range("power_history: unit out of range");
  }
  std::vector<double> window(power_.size());
  power_.copy_window(static_cast<std::size_t>(unit), window);
  return window;
}

const RollingWindow& EstimatedPowerHistory::duration_history(int unit) const {
  // Bounds semantics of the former per-unit vector, shared backing store.
  if (unit < 0 || unit >= num_units()) {
    throw std::out_of_range("duration_history: unit out of range");
  }
  return durations_;
}

void EstimatedPowerHistory::save(ByteWriter& out) const {
  out.u64(filters_.size());
  out.boolean(first_observation_);
  filters_.save(out);  // byte-compatible with the former per-filter loop
  power_.save(out);    // and with the former per-window loop
  // Per-unit duration-window wire format, emitted from the shared window
  // (all per-unit windows were identical clones of it).
  for (std::size_t u = 0; u < power_.units(); ++u) durations_.save(out);
}

void EstimatedPowerHistory::load(ByteReader& in) {
  const std::uint64_t units = in.u64();
  if (units != filters_.size()) {
    throw std::runtime_error(
        "EstimatedPowerHistory: snapshot unit count mismatch");
  }
  first_observation_ = in.boolean();
  filters_.load(in);
  power_.load(in);
  // Consume the per-unit duration windows; they are identical by
  // construction, so the last one read is the shared state.
  for (std::size_t u = 0; u < power_.units(); ++u) durations_.load(in);
}

bool EstimatedPowerHistory::warmed_up() const {
  return power_.units() > 0 && power_.full();
}

}  // namespace dps
