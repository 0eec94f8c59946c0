#include "faults/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "faults/fault_config.hpp"
#include "util/rng.hpp"

namespace dps {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kUnitCrash: return "unit_crash";
    case FaultKind::kSensorDropout: return "sensor_dropout";
    case FaultKind::kSensorGarbage: return "sensor_garbage";
    case FaultKind::kCapStuck: return "cap_stuck";
    case FaultKind::kBudgetSag: return "budget_sag";
    case FaultKind::kFanDegrade: return "fan_degrade";
    case FaultKind::kTempSensorStuck: return "temp_sensor_stuck";
  }
  return "unknown";
}

namespace {

void sort_events(std::vector<FaultEvent>& events) {
  std::sort(events.begin(), events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.unit != b.unit) return a.unit < b.unit;
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
}

void validate(const std::vector<FaultEvent>& events, int num_units) {
  for (const auto& e : events) {
    if (!(e.at >= 0.0) || !std::isfinite(e.at)) {
      throw std::invalid_argument("FaultPlan: event time must be >= 0");
    }
    if (!std::isfinite(e.duration)) {
      throw std::invalid_argument("FaultPlan: event duration must be finite");
    }
    if (e.kind == FaultKind::kBudgetSag) {
      if (!(e.magnitude > 0.0) || e.magnitude > 1.0) {
        throw std::invalid_argument(
            "FaultPlan: budget sag magnitude must be in (0, 1]");
      }
    } else if (e.kind == FaultKind::kFanDegrade) {
      if (!(e.magnitude >= 1.0) || !std::isfinite(e.magnitude)) {
        throw std::invalid_argument(
            "FaultPlan: fan degrade magnitude must be >= 1");
      }
      if (e.unit < 0 || e.unit >= num_units) {
        throw std::invalid_argument("FaultPlan: unit out of range");
      }
    } else {
      if (e.unit < 0 || e.unit >= num_units) {
        throw std::invalid_argument("FaultPlan: unit out of range");
      }
    }
  }
}

}  // namespace

FaultPlan::FaultPlan(std::vector<FaultEvent> events, int num_units)
    : events_(std::move(events)) {
  validate(events_, num_units);
  sort_events(events_);
}

FaultPlan FaultPlan::generate(const FaultPlanConfig& config, int num_units) {
  if (num_units <= 0) {
    throw std::invalid_argument("FaultPlan::generate: num_units must be > 0");
  }
  check_section(faults_section(), config);

  struct KindRate {
    FaultKind kind;
    double rate;  // events per 1000 s
  };
  // Each kind draws from its own child stream, split off in array order,
  // so adding one kind to a config never reshuffles the arrivals of the
  // others. New kinds go at the end. The three empty slots held retired
  // control-plane kinds; their streams are still split off so the kinds
  // after them keep their plans.
  const std::optional<KindRate> kinds[] = {
      KindRate{FaultKind::kUnitCrash, config.crash_rate},
      KindRate{FaultKind::kSensorDropout, config.sensor_dropout_rate},
      KindRate{FaultKind::kSensorGarbage, config.sensor_garbage_rate},
      KindRate{FaultKind::kCapStuck, config.cap_stuck_rate},
      KindRate{FaultKind::kBudgetSag, config.budget_sag_rate},
      std::nullopt,
      std::nullopt,
      std::nullopt,
      KindRate{FaultKind::kFanDegrade, config.fan_degrade_rate},
      KindRate{FaultKind::kTempSensorStuck, config.temp_stuck_rate},
  };

  Rng rng(config.seed);
  std::vector<FaultEvent> events;
  for (const auto& entry : kinds) {
    Rng stream = rng.split();
    if (!entry || entry->rate <= 0.0) continue;
    const auto [kind, rate] = *entry;
    const double lambda = rate / 1000.0;  // events per second
    Seconds t = 0.0;
    while (true) {
      // Exponential inter-arrival; uniform() < 1 so the log is finite.
      t += -std::log(1.0 - stream.uniform()) / lambda;
      if (t >= config.horizon) break;
      FaultEvent e;
      e.at = t;
      e.duration =
          stream.uniform(config.min_duration,
                         std::nextafter(config.max_duration, 1e300));
      e.kind = kind;
      if (kind == FaultKind::kBudgetSag) {
        e.unit = -1;
        e.magnitude = stream.uniform(config.sag_floor, 1.0);
      } else if (kind == FaultKind::kFanDegrade) {
        e.unit = static_cast<int>(
            stream.uniform_int(static_cast<std::uint64_t>(num_units)));
        e.magnitude =
            stream.uniform(config.fan_degrade_min, config.fan_degrade_max);
      } else {
        e.unit = static_cast<int>(
            stream.uniform_int(static_cast<std::uint64_t>(num_units)));
      }
      events.push_back(e);
    }
  }
  sort_events(events);
  FaultPlan plan;
  plan.events_ = std::move(events);
  return plan;
}

}  // namespace dps
