#include "net/net_config.hpp"

namespace dps {

const Section<NetConfig>& net_section() {
  using C = NetConfig;
  static const Section<C> section{
      "net",
      {{"round_deadline_s", &C::round_deadline_s, Range::at_least(0),
        {"--round-deadline",
         "collect-phase deadline per round, s; a client missing it is "
         "scored 0 W (0 = none)"}},
       {"reconnect_base_backoff_s", &C::reconnect_base_backoff_s,
        Range::above(0),
        {"--backoff-base", "first retry delay, s (doubles per try)"}},
       {"reconnect_max_backoff_s", &C::reconnect_max_backoff_s,
        Range::above(0), {"--backoff-max", "retry delay ceiling, s"}},
       {"reconnect_max_attempts", &C::reconnect_max_attempts,
        Range::at_least(1),
        {"--attempts", "connect/reconnect attempts per cycle"}},
       {"failsafe_cap_w", &C::failsafe_cap_w, Range::at_least(0),
        {"--failsafe-cap",
         "cap self-applied when the controller is lost, W (0 = keep the "
         "last commanded cap)"}},
       {"checkpoint_path", &C::checkpoint_path, {},
        {"--checkpoint", "write controller state snapshots to this file"}},
       {"checkpoint_interval_rounds", &C::checkpoint_interval_rounds,
        Range::at_least(1),
        {"--checkpoint-interval", "rounds between snapshots"}}},
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
