#include "ctrl/ctrl_config.hpp"

namespace dps {

const Section<CtrlConfig>& ctrl_section() {
  using C = CtrlConfig;
  static const Section<C> section{
      "ctrl",
      {{"shard_size", &C::shard_size, Range::at_least(1)},
       {"max_levels", &C::max_levels, Range::at_least(1)},
       {"leaf_jobs", &C::leaf_jobs, Range::at_least(1)},
       {"parent_host", &C::parent_host, {},
        {"--parent-host",
         "aggregator mode: report this shard's aggregate to a parent dpsd "
         "on this host (see docs/deployment.md)"}},
       {"parent_port", &C::parent_port, {0, 65535},
        {"--parent-port", "the parent's TCP port"}},
       {"parent_unit", &C::parent_unit, Range::at_least(-1),
        {"--parent-unit",
         "slot to reclaim at the parent on a restart without --restore "
         "(-1 = any)"}}},
      {{"parent_host", "needs a parent_port", "parent_port",
        [](const C& c) {
          return c.parent_host.empty() || c.parent_port != 0;
        }},
       {"parent_port", "needs a parent_host", "parent_host",
        [](const C& c) {
          return c.parent_port == 0 || !c.parent_host.empty();
        }},
       {"parent_unit", "needs a parent_host", "parent_host",
        [](const C& c) {
          return c.parent_unit == -1 || !c.parent_host.empty();
        }}}};
  return section;
}

CtrlConfig ctrl_config_from_ini(const IniFile& ini) {
  CtrlConfig config;
  read_section(ini, ctrl_section(), config);
  return config;
}

}  // namespace dps
