#include "net/net_config.hpp"

namespace dps {

const Section<NetConfig>& net_section() {
  using C = NetConfig;
  static const Section<C> section{
      "net",
      {{"round_deadline_s", &C::round_deadline_s, Range::at_least(0)},
       {"reconnect_base_backoff_s", &C::reconnect_base_backoff_s,
        Range::above(0)},
       {"reconnect_max_backoff_s", &C::reconnect_max_backoff_s,
        Range::above(0)},
       {"reconnect_max_attempts", &C::reconnect_max_attempts,
        Range::at_least(1)},
       {"failsafe_cap_w", &C::failsafe_cap_w, Range::at_least(0)},
       {"checkpoint_path", &C::checkpoint_path},
       {"checkpoint_interval_rounds", &C::checkpoint_interval_rounds,
        Range::at_least(1)}},
      {{"reconnect_max_backoff_s", "must be >= reconnect_base_backoff_s",
        "reconnect_base_backoff_s",
        [](const C& c) {
          return c.reconnect_max_backoff_s >= c.reconnect_base_backoff_s;
        }}}};
  return section;
}

NetConfig net_config_from_ini(const IniFile& ini) {
  NetConfig config;
  read_section(ini, net_section(), config);
  return config;
}

NetConfig net_config_from_file(const std::string& path) {
  return net_config_from_ini(IniFile::load(path));
}

}  // namespace dps
