#include "obs/exporters.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "util/csv.hpp"

namespace dps::obs {
namespace {

std::vector<EventRecord> to_records(const std::vector<Event>& events) {
  std::vector<EventRecord> records;
  records.reserve(events.size());
  for (const Event& e : events) records.push_back(to_record(e));
  return records;
}

/// The per-event category lets Perfetto filter layers apart.
const char* category_of(const std::string& kind) {
  if (kind == "fault_begin" || kind == "fault_end") return "faults";
  if (kind == "client_connect" || kind == "client_disconnect") return "net";
  if (kind == "span") return "prof";
  if (kind == "job_submit" || kind == "job_start" || kind == "job_end" ||
      kind == "job_requeue") {
    return "sched";
  }
  if (kind == "thermal_trip" || kind == "throttle_on" ||
      kind == "throttle_off") {
    return "thermal";
  }
  return "obs";
}

void write_trace_event(std::ostream& out, const EventRecord& e, bool first) {
  if (!first) out << ",\n";
  const double ts_us = e.time * 1e6;
  const int tid = e.unit >= 0 ? e.unit + 1 : 0;
  out << "  {\"name\":\"" << json_escape(e.kind) << "\",\"cat\":\""
      << category_of(e.kind) << "\",\"pid\":1,\"tid\":" << tid;
  if (e.kind == "span") {
    // Complete event: ts is the span start, dur its length. A span's wall
    // duration rides a simulated timeline when the sim drives the clock —
    // deliberately so: the decision costs stay visible at their step.
    out << ",\"ph\":\"X\",\"ts\":" << ts_us << ",\"dur\":" << e.extra * 1e6;
    if (!e.detail.empty()) {
      out << ",\"args\":{\"scope\":\"" << json_escape(e.detail) << "\"}";
    } else {
      out << ",\"args\":{}";
    }
  } else {
    out << ",\"ph\":\"i\",\"s\":\"g\",\"ts\":" << ts_us
        << ",\"args\":{\"value\":" << e.value << ",\"extra\":" << e.extra;
    if (e.unit >= 0) out << ",\"unit\":" << e.unit;
    if (!e.detail.empty()) {
      out << ",\"detail\":\"" << json_escape(e.detail) << "\"";
    }
    out << "}";
  }
  out << "}";
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

EventRecord to_record(const Event& event) {
  EventRecord record;
  record.time = event.time;
  record.kind = to_string(event.kind);
  record.unit = event.unit;
  record.value = event.value;
  record.extra = event.extra;
  if (event.detail != nullptr) record.detail = event.detail;
  return record;
}

void write_events_csv(const std::vector<Event>& events,
                      const std::string& path) {
  CsvWriter csv(path);
  csv.write_header({"time", "kind", "unit", "value", "extra", "detail"});
  for (const Event& e : events) {
    csv.write_row({format_double(e.time, 6), to_string(e.kind),
                   std::to_string(e.unit), format_double(e.value, 6),
                   format_double(e.extra, 9),
                   e.detail != nullptr ? e.detail : ""});
  }
}

void write_events_csv(const EventLog& log, const std::string& path) {
  write_events_csv(log.snapshot(), path);
}

std::vector<EventRecord> read_events_csv(const CsvReader& csv) {
  const std::size_t time = csv.require_column("time");
  csv.require_column("kind");
  const std::size_t unit = csv.require_column("unit");
  const std::size_t value = csv.require_column("value");
  const std::size_t extra = csv.require_column("extra");
  std::vector<EventRecord> records;
  records.reserve(csv.num_rows());
  for (std::size_t r = 0; r < csv.num_rows(); ++r) {
    // A braced list runs in order: time, unit, value, extra are checked
    // left to right.
    records.push_back({csv.real(r, time), csv.cell(r, "kind").value_or(""),
                       csv.integer<std::int32_t>(r, unit), csv.real(r, value),
                       csv.real(r, extra), csv.cell(r, "detail").value_or("")});
  }
  return records;
}

std::vector<EventRecord> read_events_csv(const std::string& path) {
  return read_events_csv(CsvReader::load(path));
}

void write_chrome_trace(const std::vector<EventRecord>& events,
                        std::ostream& out) {
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (const EventRecord& e : events) {
    write_trace_event(out, e, first);
    first = false;
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void write_chrome_trace(const std::vector<Event>& events, std::ostream& out) {
  write_chrome_trace(to_records(events), out);
}

void write_chrome_trace_file(const EventLog& log, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write chrome trace to " + path);
  }
  write_chrome_trace(log.snapshot(), out);
}

}  // namespace dps::obs
