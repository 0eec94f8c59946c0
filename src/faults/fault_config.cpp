#include "faults/fault_config.hpp"

namespace dps {

const Section<FaultPlanConfig>& faults_section() {
  using C = FaultPlanConfig;
  const Range rate = Range::at_least(0);
  static const Section<C> section{
      "faults",
      {{"seed", &C::seed},
       {"horizon", &C::horizon, Range::above(0)},
       {"crash_rate", &C::crash_rate, rate},
       {"sensor_dropout_rate", &C::sensor_dropout_rate, rate},
       {"sensor_garbage_rate", &C::sensor_garbage_rate, rate},
       {"cap_stuck_rate", &C::cap_stuck_rate, rate},
       {"budget_sag_rate", &C::budget_sag_rate, rate},
       {"fan_degrade_rate", &C::fan_degrade_rate, rate},
       {"temp_stuck_rate", &C::temp_stuck_rate, rate},
       {"min_duration", &C::min_duration, Range::at_least(0)},
       {"max_duration", &C::max_duration},
       {"sag_floor", &C::sag_floor, {0, 1, true}},
       {"fan_degrade_min", &C::fan_degrade_min, Range::at_least(1)},
       {"fan_degrade_max", &C::fan_degrade_max}},
      {{"max_duration", "must be >= min_duration", "min_duration",
        [](const C& c) { return c.max_duration >= c.min_duration; }},
       {"fan_degrade_max", "must be >= fan_degrade_min", "fan_degrade_min",
        [](const C& c) { return c.fan_degrade_max >= c.fan_degrade_min; }}}};
  return section;
}

FaultPlanConfig fault_plan_config_from_ini(const IniFile& ini) {
  FaultPlanConfig config;
  read_section(ini, faults_section(), config);
  return config;
}

bool any_fault_rate(const FaultPlanConfig& config) {
  return config.crash_rate > 0.0 || config.sensor_dropout_rate > 0.0 ||
         config.sensor_garbage_rate > 0.0 || config.cap_stuck_rate > 0.0 ||
         config.budget_sag_rate > 0.0 || config.fan_degrade_rate > 0.0 ||
         config.temp_stuck_rate > 0.0;
}

}  // namespace dps
