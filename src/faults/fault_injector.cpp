#include "faults/fault_injector.hpp"

#include <algorithm>
#include <stdexcept>

namespace dps {

FaultInjector::FaultInjector(const FaultPlan& plan, int num_units)
    : schedule_(plan.events()),
      crash_(static_cast<std::size_t>(num_units), 0),
      dropout_(static_cast<std::size_t>(num_units), 0),
      garbage_(static_cast<std::size_t>(num_units), 0),
      stuck_(static_cast<std::size_t>(num_units), 0),
      fan_degrade_(static_cast<std::size_t>(num_units), 0),
      temp_stuck_(static_cast<std::size_t>(num_units), 0) {
  if (num_units <= 0) {
    throw std::invalid_argument("FaultInjector: num_units must be > 0");
  }
  for (const auto& e : schedule_) {
    if (e.kind != FaultKind::kBudgetSag &&
        (e.unit < 0 || e.unit >= num_units)) {
      throw std::invalid_argument("FaultInjector: plan unit out of range");
    }
  }
}

void FaultInjector::apply(const FaultEvent& e, int delta) {
  switch (e.kind) {
    case FaultKind::kUnitCrash:
      crash_[static_cast<std::size_t>(e.unit)] += delta;
      break;
    case FaultKind::kSensorDropout:
      dropout_[static_cast<std::size_t>(e.unit)] += delta;
      break;
    case FaultKind::kSensorGarbage:
      garbage_[static_cast<std::size_t>(e.unit)] += delta;
      break;
    case FaultKind::kCapStuck:
      stuck_[static_cast<std::size_t>(e.unit)] += delta;
      break;
    case FaultKind::kBudgetSag:
      if (delta > 0) {
        sag_factors_.push_back(e.magnitude);
      } else {
        const auto it =
            std::find(sag_factors_.begin(), sag_factors_.end(), e.magnitude);
        if (it != sag_factors_.end()) sag_factors_.erase(it);
      }
      break;
    case FaultKind::kFanDegrade:
      fan_degrade_[static_cast<std::size_t>(e.unit)] += delta;
      if (delta > 0) {
        fan_factors_.emplace_back(e.unit, e.magnitude);
      } else {
        const auto it = std::find(fan_factors_.begin(), fan_factors_.end(),
                                  std::make_pair(e.unit, e.magnitude));
        if (it != fan_factors_.end()) fan_factors_.erase(it);
      }
      break;
    case FaultKind::kTempSensorStuck:
      temp_stuck_[static_cast<std::size_t>(e.unit)] += delta;
      break;
  }
  active_count_ += delta;
}

void FaultInjector::set_obs(const obs::ObsSink& sink) {
  obs_ = sink;
  obs_activations_ =
      sink.counter("faults_activated_total", "Fault events activated");
}

void FaultInjector::advance(Seconds now) {
  activated_.clear();
  cleared_.clear();

  // Activate everything that has come due (plan order == time order).
  while (next_ < schedule_.size() && schedule_[next_].at <= now) {
    const FaultEvent& e = schedule_[next_];
    apply(e, +1);
    active_.push_back(ActiveEvent{e, e.clears_at()});
    activated_.push_back(e);
    ++activated_total_;
    ++next_;
  }

  // Clear every active window that has ended (including events whose whole
  // window fell inside this step: they activate above and clear here, so
  // short faults are never silently dropped).
  for (std::size_t i = 0; i < active_.size();) {
    if (active_[i].clears_at >= 0.0 && active_[i].clears_at <= now) {
      apply(active_[i].event, -1);
      cleared_.push_back(active_[i].event);
      active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }

  if (obs_.enabled() && (!activated_.empty() || !cleared_.empty())) {
    for (const FaultEvent& e : activated_) {
      obs_activations_->add();
      obs_.event_at(now, obs::EventKind::kFaultBegin, e.unit, e.magnitude,
                    e.duration, to_string(e.kind));
    }
    for (const FaultEvent& e : cleared_) {
      obs_.event_at(now, obs::EventKind::kFaultEnd, e.unit, e.magnitude, 0.0,
                    to_string(e.kind));
    }
  }
}

double FaultInjector::fan_degrade_factor(int unit) const {
  if (fan_degrade_[static_cast<std::size_t>(unit)] == 0) return 1.0;
  double factor = 1.0;
  for (const auto& [u, magnitude] : fan_factors_) {
    if (u == unit) factor *= magnitude;
  }
  return factor;
}

double FaultInjector::budget_factor() const {
  double factor = 1.0;
  for (const double f : sag_factors_) factor = std::min(factor, f);
  return factor;
}

}  // namespace dps
