#include "sim/trace.hpp"

#include <charconv>

#include "util/csv.hpp"

namespace dps {
namespace {

/// The shortest text that reads back as the same double, so a reloaded
/// trace holds exactly the samples that were recorded.
std::string round_trip(double value) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

}  // namespace

TraceRecorder::TraceRecorder(int num_units)
    : series_(static_cast<std::size_t>(num_units)) {}

void TraceRecorder::record(int unit, const TraceSample& sample) {
  series_.at(static_cast<std::size_t>(unit)).push_back(sample);
}

const std::vector<TraceSample>& TraceRecorder::series(int unit) const {
  return series_.at(static_cast<std::size_t>(unit));
}

void TraceRecorder::write_csv(const std::string& path) const {
  CsvWriter csv(path);
  csv.write_header({"time", "unit", "true_power", "measured_power", "cap",
                    "demand", "priority"});
  for (std::size_t u = 0; u < series_.size(); ++u) {
    for (const auto& s : series_[u]) {
      csv.write_row({round_trip(s.time), std::to_string(u),
                     round_trip(s.true_power), round_trip(s.measured_power),
                     round_trip(s.cap), round_trip(s.demand),
                     std::to_string(s.priority)});
    }
  }
}

std::vector<double> TraceRecorder::column(int unit,
                                          Watts TraceSample::*field) const {
  std::vector<double> out;
  out.reserve(series(unit).size());
  for (const auto& s : series(unit)) out.push_back(s.*field);
  return out;
}

}  // namespace dps
