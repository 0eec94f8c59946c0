#pragma once

#include <optional>

#include "thermal/thermal_model.hpp"
#include "util/config_table.hpp"
#include "util/ini.hpp"

namespace dps {

/// Loads a ThermalConfig from the `[thermal]` section of a DPS INI file
/// (see configs/dps.ini). Returns nullopt when the section is absent or
/// `enabled = false` — the caller leaves EngineConfig::thermal unset and
/// the run is bit-identical to a pre-thermal build. Recognized layout:
///
///   [thermal]
///   enabled = true
///   ambient = 25             ; [C] inlet temperature
///   resistance = 0.45        ; [C/W] junction-to-ambient
///   time_constant = 60       ; [s] RC time constant
///   trip = 95                ; [C] governor engages at/above
///   clear = 85               ; [C] governor releases at/below
///   throttle_cap = 60        ; [W] cap forced while throttled
///   jitter = 0.05            ; per-unit R/tau jitter fraction
///   seed = 42
///
/// Unset keys keep the defaults. Throws std::invalid_argument
/// "[thermal]: key ... at line N" on a value that does not parse or breaks
/// thermal_section()'s rules (non-positive R/tau/throttle cap, trip not
/// above clear and ambient, jitter outside [0, 1)).
std::optional<ThermalConfig> thermal_config_from_ini(const IniFile& ini);

/// The [thermal] table (`enabled` is read beside it). ThermalModel and
/// ThrottleGovernor run check_section(thermal_section(), c) on their
/// config, so code-built configs meet the same rules.
const Section<ThermalConfig>& thermal_section();

}  // namespace dps
