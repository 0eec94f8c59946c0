#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "obs/event_log.hpp"
#include "util/csv_reader.hpp"

namespace dps::obs {

/// An event with owning strings — what the offline tools work with after
/// reading an events CSV back from disk (the in-memory Event only carries
/// static-lifetime pointers).
struct EventRecord {
  double time = 0.0;
  std::string kind;
  std::int32_t unit = -1;
  double value = 0.0;
  double extra = 0.0;
  std::string detail;
};

EventRecord to_record(const Event& event);

/// Writes events as CSV with columns time,kind,unit,value,extra,detail
/// (the cheap always-on recording format: long sweeps dump this and
/// convert to the trace JSON later with tools/obs_dump). Throws
/// std::runtime_error if the file cannot be written.
void write_events_csv(const std::vector<Event>& events,
                      const std::string& path);
void write_events_csv(const EventLog& log, const std::string& path);

/// Reads an events CSV back. Throws std::runtime_error on a missing
/// column, or on a row (a blank line included) whose time, value or extra
/// is not a finite number or whose unit is not a 32-bit integer, naming
/// the row's line; rows with an unknown kind are kept verbatim (the trace
/// exporter renders them as generic instants).
std::vector<EventRecord> read_events_csv(const CsvReader& csv);

/// Same, over a file (errors cite its path). Throws std::runtime_error if
/// unreadable.
std::vector<EventRecord> read_events_csv(const std::string& path);

/// Writes the Chrome trace_event JSON format ("JSON object format":
/// {"traceEvents": [...], "displayTimeUnit": "ms"}), loadable directly in
/// chrome://tracing and Perfetto. Point events become instants ("ph":"i"),
/// span events become complete events ("ph":"X") with their duration.
/// Timestamps are microseconds of observer time; unit-scoped events land
/// on track (tid) unit+1, run-wide events on track 0.
void write_chrome_trace(const std::vector<EventRecord>& events,
                        std::ostream& out);
void write_chrome_trace(const std::vector<Event>& events, std::ostream& out);
void write_chrome_trace_file(const EventLog& log, const std::string& path);

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters). Exposed for tests.
std::string json_escape(const std::string& s);

}  // namespace dps::obs
