#include "p2p/agent.hpp"

#include <algorithm>
#include <stdexcept>

namespace dps {

PowerAgent::PowerAgent(int id, Watts initial_budget, Watts min_cap,
                       Watts tdp, const P2pConfig& config)
    : id_(id),
      budget_(initial_budget),
      min_cap_(min_cap),
      tdp_(tdp),
      config_(config),
      filter_(config.kf_process_variance, config.kf_measurement_variance),
      history_(config.history_length),
      durations_(config.history_length) {
  if (initial_budget < min_cap || min_cap <= 0.0 || tdp < min_cap) {
    throw std::invalid_argument("PowerAgent: invalid budget/limits");
  }
}

Watts PowerAgent::observe(Watts measured_power) {
  last_power_ = measured_power;
  double estimate = measured_power;
  if (first_observation_) {
    filter_.reset(measured_power, config_.kf_measurement_variance);
    first_observation_ = false;
  } else {
    estimate = filter_.update(measured_power);
  }
  history_.push(estimate);
  durations_.push(1.0);

  // Local stance: rising power (or pinned at the slice) => requester;
  // falling power => donor; in between keep the previous stance, exactly
  // like DPS's priority semantics but judged from local data only.
  const double deriv =
      history_.avg_derivative(durations_, config_.deriv_length);
  const bool pinned = measured_power >= budget_ * 0.95;
  if (deriv > config_.deriv_inc_threshold || pinned) {
    wants_power_ = true;
  } else if (deriv < config_.deriv_dec_threshold ||
             measured_power < budget_ * 0.55) {
    wants_power_ = false;
  }
  return budget_;
}

Watts PowerAgent::offer() const {
  if (wants_power_) return 0.0;
  const Watts keep = std::max(min_cap_, last_power_ + config_.keep_margin);
  const Watts surplus = budget_ - keep;
  return std::max(0.0, surplus * config_.donate_fraction);
}

Watts PowerAgent::request() const {
  if (!wants_power_) return 0.0;
  const Watts target =
      std::min(tdp_, last_power_ + config_.want_margin);
  return std::max(0.0, target - budget_);
}

void PowerAgent::save(ByteWriter& out) const {
  out.f64(budget_);
  filter_.save(out);
  history_.save(out);
  durations_.save(out);
  out.f64(last_power_);
  out.boolean(wants_power_);
  out.boolean(first_observation_);
}

void PowerAgent::load(ByteReader& in) {
  budget_ = in.f64();
  filter_.load(in);
  history_.load(in);
  durations_.load(in);
  last_power_ = in.f64();
  wants_power_ = in.boolean();
  first_observation_ = in.boolean();
}

void PowerAgent::settle(Watts amount) {
  // The exchange protocol bounds transfers by offer()/request(), which
  // already respect [min_cap, tdp]; never clamp here — silently dropping
  // watts would break the cluster-total conservation invariant.
  budget_ += amount;
}

}  // namespace dps
