#include "sched/sched_config.hpp"

#include <sstream>

namespace dps::sched {
namespace {

std::vector<std::string> split_names(const std::string& value) {
  std::vector<std::string> names;
  std::istringstream in(value);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (const std::string_view name = trim(item); !name.empty()) {
      names.emplace_back(name);
    }
  }
  return names;
}

}  // namespace

const Section<JobScheduleConfig>& sched_section() {
  using C = JobScheduleConfig;
  static const Section<C> section{
      "sched",
      {{"seed", &C::seed},
       {"arrival_rate", &C::arrival_rate_per_1000s, Range::above(0),
        {"--arrival-rate", "expected jobs per 1000 s"}},
       {"job_count", &C::job_count, Range::at_least(0),
        {"--jobs", "jobs in the generated stream"}},
       {"min_units", &C::min_units, Range::at_least(1)},
       {"max_units", &C::max_units, Range::at_least(1)},
       {"retry_cap", &C::retry_cap, Range::at_least(0)},
       {"slowdown_bound", &C::slowdown_bound, Range::above(0)},
       {"walltime_factor", &C::walltime_factor, Range::above(0)},
       {"power_fit_fraction", &C::power, &PowerAwareConfig::fit_fraction,
        Range::above(0)},
       {"min_shrink_fraction", &C::power,
        &PowerAwareConfig::min_shrink_fraction, {0, 1, true}}},
      {{"max_units", "must be >= min_units", "min_units",
        [](const C& c) { return c.max_units >= c.min_units; }}}};
  return section;
}

JobScheduleConfig sched_config_from_ini(const IniFile& ini) {
  JobScheduleConfig config;
  read_section(ini, sched_section(), config);
  if (const auto v = ini.get("sched", "policy");
      v && !sched_policy_from_string(*v, config.policy)) {
    config_error("sched", "policy",
                 "must be fcfs, backfill or power, got '" + *v + "'", &ini);
  }
  if (const auto v = ini.get("sched", "workload_mix")) {
    config.workload_mix = split_names(*v);
    if (config.workload_mix.empty()) {
      config_error("sched", "workload_mix", "names no workloads", &ini);
    }
  }
  if (const auto v = ini.get("sched", "job_trace"); v && !v->empty()) {
    config.trace = load_job_trace(*v);
  }
  return config;
}

JobScheduleConfig sched_config_from_file(const std::string& path) {
  return sched_config_from_ini(IniFile::load(path));
}

}  // namespace dps::sched
