#include "obs/obs_config.hpp"

#include <fstream>
#include <stdexcept>

#include "obs/exporters.hpp"
#include "util/csv.hpp"

namespace dps::obs {

const Section<ObsConfig>& obs_section() {
  using C = ObsConfig;
  static const Section<C> section{
      "obs",
      {{"enabled", &C::enabled},
       {"events_capacity", &C::events_capacity, Range::at_least(1)},
       {"span_events", &C::span_events},
       {"export_prometheus", &C::export_prometheus, {},
        {"--obs-metrics",
         "write Prometheus metrics (any --obs-* flag enables "
         "observability)"}},
       {"export_metrics_csv", &C::export_metrics_csv},
       {"export_events_csv", &C::export_events_csv, {},
        {"--obs-events", "write the event-log CSV"}},
       {"export_trace_json", &C::export_trace_json, {},
        {"--obs-trace", "write Chrome trace_event JSON"}}}};
  return section;
}

ObsConfig obs_config_from_ini(const IniFile& ini) {
  ObsConfig config;
  read_section(ini, obs_section(), config);
  return config;
}

ObsConfig obs_config_from_file(const std::string& path) {
  return obs_config_from_ini(IniFile::load(path));
}

ObsSink make_sink(const ObsConfig& config) {
  if (!config.enabled) return ObsSink();
  return ObsSink::create(config.events_capacity, config.span_events);
}

void export_all(const ObsSink& sink, const ObsConfig& config) {
  if (!sink.enabled()) return;
  Observer& observer = *sink.observer();
  if (!config.export_prometheus.empty()) {
    std::ofstream out(config.export_prometheus);
    if (!out) {
      throw std::runtime_error("cannot write " + config.export_prometheus);
    }
    observer.metrics().write_prometheus(out);
    flush_or_throw(out, config.export_prometheus);
  }
  if (!config.export_metrics_csv.empty()) {
    observer.metrics().write_csv(config.export_metrics_csv);
  }
  if (!config.export_events_csv.empty()) {
    write_events_csv(observer.events(), config.export_events_csv);
  }
  if (!config.export_trace_json.empty()) {
    write_chrome_trace_file(observer.events(), config.export_trace_json);
  }
}

}  // namespace dps::obs
