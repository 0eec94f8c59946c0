#pragma once

#include <string>

#include "core/dps_config.hpp"
#include "util/config_table.hpp"
#include "util/ini.hpp"

namespace dps {

/// Loads a DpsConfig from an INI file — the C++ counterpart of the paper
/// artifact's src/DPS/config.py. Unset keys keep their defaults, so a
/// deployment config only lists what it changes. Recognized layout:
///
///   [dps]
///   history_length = 20
///   kf_process_variance = 4.0
///   kf_measurement_variance = 4.0
///   peak_prominence = 20
///   peak_count_threshold = 2
///   std_threshold = 8
///   deriv_inc_threshold = 2.0
///   deriv_dec_threshold = -4.0
///   deriv_length = 3
///   idle_demote_fraction = 0.65
///   idle_demote_steps = 4
///   restore_threshold = 0.95
///   evict_unresponsive = true
///   unresponsive_power_floor = 8.0
///   unresponsive_steps = 5
///   use_kalman_filter = true
///   ewma_alpha = 0.0
///   use_priority_module = true
///   use_restore = true
///   favor_low_caps = true
///
///   [stateless]
///   inc_threshold = 0.95
///   dec_threshold = 0.85
///   inc_percentile = 1.10
///   dec_percentile = 0.95
///   dec_floor_margin = 1.0
///   decision_interval_steps = 1
///   dec_window_steps = 1
///
/// Both tables check types only (the managers check the values). Throws
/// std::invalid_argument "[section]: key ... at line N" on a value that
/// does not parse or fit its field; unknown keys are ignored (forward
/// compatibility).
///
/// Other subsystems own their sections in the same file: [net] is parsed
/// by src/net/net_config, [ctrl] (the hierarchical control plane) by
/// src/ctrl/ctrl_config, [sched] by src/sched/sched_config, [obs] by
/// src/obs/obs_config, [thermal] by src/thermal/thermal_config.
DpsConfig dps_config_from_ini(const IniFile& ini);
DpsConfig dps_config_from_file(const std::string& path);

/// Applies the [stateless] section alone (used for SLURM baseline tuning).
MimdConfig mimd_config_from_ini(const IniFile& ini, const MimdConfig& base);

const Section<DpsConfig>& dps_section();
const Section<MimdConfig>& stateless_section();

}  // namespace dps
