#pragma once

#include "faults/fault_plan.hpp"
#include "util/config_table.hpp"

namespace dps {

/// The rules a FaultPlanConfig must meet, which FaultPlan::generate checks:
/// horizon > 0, rates >= 0, 0 <= min_duration <= max_duration, sag_floor in
/// (0, 1], 1 <= fan_degrade_min <= fan_degrade_max. A broken rule throws
/// std::invalid_argument "[faults]: key ...". No INI file carries the
/// section: the fault drills build their configs in code.
const Section<FaultPlanConfig>& faults_section();

}  // namespace dps
