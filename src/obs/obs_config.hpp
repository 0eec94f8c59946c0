#pragma once

#include <string>

#include "obs/sink.hpp"
#include "util/config_table.hpp"
#include "util/ini.hpp"

namespace dps::obs {

/// Configuration of the observability subsystem, loaded from the `[obs]`
/// section of a DPS INI file (see configs/dps.ini). Unset keys keep the
/// defaults; unknown keys are ignored (forward compatibility). Layout:
///
///   [obs]
///   enabled = false
///   events_capacity = 65536    ; ring keeps the newest N events
///   span_events = true         ; timed phases also land in the event log
///   export_prometheus = obs_metrics.prom
///   export_metrics_csv = obs_metrics.csv
///   export_events_csv = obs_events.csv
///   export_trace_json = obs_trace.json
///
/// Empty export paths skip that exporter.
struct ObsConfig {
  bool enabled = false;
  std::size_t events_capacity = 65536;
  bool span_events = true;
  std::string export_prometheus;
  std::string export_metrics_csv;
  std::string export_events_csv;
  std::string export_trace_json;

  /// Any export target configured?
  bool any_export() const {
    return !export_prometheus.empty() || !export_metrics_csv.empty() ||
           !export_events_csv.empty() || !export_trace_json.empty();
  }
};

/// Throws std::invalid_argument "[obs]: key ... at line N" on a value that
/// does not parse or an events_capacity of 0.
ObsConfig obs_config_from_ini(const IniFile& ini);
ObsConfig obs_config_from_file(const std::string& path);

const Section<ObsConfig>& obs_section();

/// A sink per the config: enabled ⇒ a fresh Observer, otherwise the
/// disabled (free) sink.
ObsSink make_sink(const ObsConfig& config);

/// Runs every configured exporter against the sink's observer. No-op on a
/// disabled sink. Throws std::runtime_error when a file cannot be written.
void export_all(const ObsSink& sink, const ObsConfig& config);

}  // namespace dps::obs
