#include "thermal/thermal_config.hpp"

namespace dps {

const Section<ThermalConfig>& thermal_section() {
  using C = ThermalConfig;
  static const Section<C> section{
      "thermal",
      {{"ambient", &C::ambient_c},
       {"resistance", &C::resistance_c_per_w, Range::above(0)},
       {"time_constant", &C::time_constant_s, Range::above(0)},
       {"trip", &C::trip_c, {},
        {"--thermal-trip",
         "governor trip temperature, C (any --thermal* flag enables the "
         "model)"}},
       {"clear", &C::clear_c, {},
        {"--thermal-clear", "governor clear temperature, C"}},
       {"throttle_cap", &C::throttle_cap_w, Range::above(0),
        {"--thermal-cap", "cap forced while a unit is throttled, W"}},
       {"jitter", &C::jitter_fraction, {0, 1, false, true}},
       {"seed", &C::seed}},
      {{"trip", "must be > clear", "clear",
        [](const C& c) { return c.trip_c > c.clear_c; }},
       {"trip", "must be > ambient", "ambient",
        [](const C& c) { return c.trip_c > c.ambient_c; }}}};
  return section;
}

std::optional<ThermalConfig> thermal_config_from_ini(const IniFile& ini) {
  if (!ini.has_section("thermal")) return std::nullopt;
  bool enabled = true;
  read_field(ini, "thermal", "enabled", &enabled);
  if (!enabled) return std::nullopt;
  ThermalConfig config;
  read_section(ini, thermal_section(), config);
  return config;
}

}  // namespace dps
