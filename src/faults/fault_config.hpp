#pragma once

#include <string>

#include "faults/fault_plan.hpp"
#include "util/config_table.hpp"
#include "util/ini.hpp"

namespace dps {

/// Loads a FaultPlanConfig from the `[faults]` section of a DPS INI file
/// (see configs/dps.ini). Unset keys keep the defaults, so a config only
/// lists what it changes; unknown keys are ignored (forward
/// compatibility). Recognized layout:
///
///   [faults]
///   seed = 4242
///   horizon = 10000            ; [s] events generated on [0, horizon)
///   crash_rate = 1.0           ; expected events / 1000 s, cluster-wide
///   sensor_dropout_rate = 1.0
///   sensor_garbage_rate = 0.5
///   cap_stuck_rate = 0.5
///   budget_sag_rate = 0.5
///   fan_degrade_rate = 0.5     ; thermal faults (need [thermal] enabled)
///   temp_stuck_rate = 0.5
///   min_duration = 30          ; [s] fault active window, uniform
///   max_duration = 180         ; [s]
///   sag_floor = 0.6            ; budget sag scales into [sag_floor, 1)
///   fan_degrade_min = 1.25     ; resistance multiplier range, >= 1
///   fan_degrade_max = 2.0
///
/// Throws std::invalid_argument "[faults]: key ... at line N" on a value
/// that does not parse or breaks faults_section()'s rules: horizon > 0,
/// rates >= 0, 0 <= min_duration <= max_duration, sag_floor in (0, 1],
/// 1 <= fan_degrade_min <= fan_degrade_max. FaultPlan::generate checks
/// the same rules.
FaultPlanConfig fault_plan_config_from_ini(const IniFile& ini);

const Section<FaultPlanConfig>& faults_section();

/// True when the config would generate any events at all (any rate > 0).
bool any_fault_rate(const FaultPlanConfig& config);

}  // namespace dps
