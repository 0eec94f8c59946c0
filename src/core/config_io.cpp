#include "core/config_io.hpp"

namespace dps {

const Section<DpsConfig>& dps_section() {
  using C = DpsConfig;
  static const Section<C> section{
      "dps",
      {{"history_length", &C::history_length},
       {"kf_process_variance", &C::kf_process_variance},
       {"kf_measurement_variance", &C::kf_measurement_variance},
       {"peak_prominence", &C::peak_prominence},
       {"peak_count_threshold", &C::peak_count_threshold},
       {"std_threshold", &C::std_threshold},
       {"deriv_inc_threshold", &C::deriv_inc_threshold},
       {"deriv_dec_threshold", &C::deriv_dec_threshold},
       {"deriv_length", &C::deriv_length},
       {"idle_demote_fraction", &C::idle_demote_fraction},
       {"idle_demote_steps", &C::idle_demote_steps},
       {"restore_threshold", &C::restore_threshold},
       {"evict_unresponsive", &C::evict_unresponsive},
       {"unresponsive_power_floor", &C::unresponsive_power_floor},
       {"unresponsive_steps", &C::unresponsive_steps},
       {"use_kalman_filter", &C::use_kalman_filter},
       {"ewma_alpha", &C::ewma_alpha},
       {"use_priority_module", &C::use_priority_module},
       {"use_restore", &C::use_restore},
       {"favor_low_caps", &C::favor_low_caps}}};
  return section;
}

const Section<MimdConfig>& stateless_section() {
  using C = MimdConfig;
  static const Section<C> section{
      "stateless",
      {{"inc_threshold", &C::inc_threshold},
       {"dec_threshold", &C::dec_threshold},
       {"inc_percentile", &C::inc_percentile},
       {"dec_percentile", &C::dec_percentile},
       {"dec_floor_margin", &C::dec_floor_margin},
       {"decision_interval_steps", &C::decision_interval_steps},
       {"dec_window_steps", &C::dec_window_steps}}};
  return section;
}

MimdConfig mimd_config_from_ini(const IniFile& ini, const MimdConfig& base) {
  MimdConfig config = base;
  read_section(ini, stateless_section(), config);
  return config;
}

DpsConfig dps_config_from_ini(const IniFile& ini) {
  DpsConfig config;
  config.mimd = mimd_config_from_ini(ini, config.mimd);
  read_section(ini, dps_section(), config);
  return config;
}

DpsConfig dps_config_from_file(const std::string& path) {
  return dps_config_from_ini(IniFile::load(path));
}

}  // namespace dps
