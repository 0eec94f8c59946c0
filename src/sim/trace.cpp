#include "sim/trace.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <map>
#include <stdexcept>

#include "metrics/metrics.hpp"
#include "signal/rolling.hpp"
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

Trace::Trace(int num_units) : units_(static_cast<std::size_t>(num_units)) {}

void Trace::record(int u, Seconds time, Watts true_power, Watts measured_power,
                   Watts cap, Watts demand, int priority) {
  UnitTrace& series = units_.at(static_cast<std::size_t>(u));
  series.time.push_back(time);
  series.true_power.push_back(true_power);
  series.measured_power.push_back(measured_power);
  series.cap.push_back(cap);
  series.demand.push_back(demand);
  series.priority.push_back(priority);
}

void Trace::write_csv(const std::string& path) const {
  CsvWriter csv(path);
  csv.write_header({"time", "unit", "true_power", "measured_power", "cap",
                    "demand", "priority"});
  for (std::size_t u = 0; u < units_.size(); ++u) {
    const UnitTrace& s = units_[u];
    for (std::size_t i = 0; i < s.time.size(); ++i) {
      csv.write_row({round_trip(s.time[i]), std::to_string(u),
                     round_trip(s.true_power[i]),
                     round_trip(s.measured_power[i]), round_trip(s.cap[i]),
                     round_trip(s.demand[i]), std::to_string(s.priority[i])});
    }
  }
  csv.flush();
}

Trace Trace::from_csv(const CsvReader& csv) {
  const std::size_t time = csv.require_column("time");
  const std::size_t unit = csv.require_column("unit");
  const std::size_t true_power = csv.require_column("true_power");
  const std::size_t measured = csv.require_column("measured_power");
  const std::size_t cap = csv.require_column("cap");
  const std::size_t demand = csv.require_column("demand");
  const std::size_t priority = csv.require_column("priority");
  // Rows may come in any unit order; the units are checked once all rows
  // have parsed.
  std::map<int, UnitTrace> units;
  for (std::size_t r = 0; r < csv.num_rows(); ++r) {
    auto& series = units[csv.integer<int>(r, unit)];
    series.time.push_back(csv.real(r, time));
    series.true_power.push_back(csv.real(r, true_power));
    series.measured_power.push_back(csv.real(r, measured));
    series.cap.push_back(csv.real(r, cap));
    series.demand.push_back(csv.real(r, demand));
    const int p = csv.integer<int>(r, priority);
    if (p < -1 || p > 1) csv.bad(r, priority);
    series.priority.push_back(p);
  }
  if (units.empty()) {
    throw std::runtime_error(csv.source() + ": no samples");
  }
  // n distinct units are 0..n-1 unless one lies outside [0, n): the scan
  // then stops at its first row.
  const int n = static_cast<int>(units.size());
  if (units.begin()->first != 0 || units.rbegin()->first != n - 1) {
    for (std::size_t r = 0;; ++r) {
      const int u = csv.integer<int>(r, unit);
      if (u < 0 || u >= n) {
        csv.fail(r, "unit " + std::to_string(u) +
                        ", but units must be numbered 0.." +
                        std::to_string(n - 1));
      }
    }
  }
  Trace trace;
  for (auto& [u, series] : units) trace.units_.push_back(std::move(series));
  return trace;
}

Trace Trace::load_csv(const std::string& path) {
  return from_csv(CsvReader::load(path));
}

const UnitTrace& Trace::unit(int u) const {
  if (u < 0 || u >= num_units()) {
    throw std::out_of_range("Trace: no unit " + std::to_string(u));
  }
  return units_[static_cast<std::size_t>(u)];
}

double Trace::satisfaction_of(int u) const {
  const auto& series = unit(u);
  const double mean_power = mean_of(series.true_power);
  const double mean_demand = mean_of(series.demand);
  if (mean_demand <= 0.0) return 1.0;
  return satisfaction(mean_power, mean_demand);
}

double Trace::group_fairness(const std::vector<int>& group_a,
                             const std::vector<int>& group_b) const {
  auto group_satisfaction = [this](const std::vector<int>& group) {
    if (group.empty()) {
      throw std::invalid_argument("Trace: empty fairness group");
    }
    double sum = 0.0;
    for (const int u : group) sum += satisfaction_of(u);
    return sum / static_cast<double>(group.size());
  };
  return fairness(group_satisfaction(group_a), group_satisfaction(group_b));
}

double Trace::starved_share(int u, Watts cap_threshold) const {
  const auto& series = unit(u);
  std::size_t hungry = 0, starved = 0;
  for (std::size_t i = 0; i < series.demand.size(); ++i) {
    if (series.demand[i] > 110.0) {
      ++hungry;
      if (series.cap[i] < cap_threshold) ++starved;
    }
  }
  return hungry > 0 ? static_cast<double>(starved) /
                          static_cast<double>(hungry)
                    : 0.0;
}

double Trace::high_priority_share(int u) const {
  const auto& series = unit(u);
  std::size_t valid = 0, high = 0;
  for (const int p : series.priority) {
    if (p >= 0) {
      ++valid;
      if (p == 1) ++high;
    }
  }
  if (valid == 0) return -1.0;
  return static_cast<double>(high) / static_cast<double>(valid);
}

PhaseStats Trace::phases_of(int u, Watts threshold) const {
  return analyze_phases(unit(u).true_power, threshold);
}

double Trace::mean_cap_sum() const {
  // Only the steps that every unit recorded count.
  std::size_t samples =
      units_.empty() ? 0 : std::numeric_limits<std::size_t>::max();
  for (const auto& series : units_) {
    samples = std::min(samples, series.cap.size());
  }
  double total = 0.0;
  for (std::size_t i = 0; i < samples; ++i) {
    double sum = 0.0;
    for (const auto& series : units_) sum += series.cap[i];
    total += sum;
  }
  return samples > 0 ? total / static_cast<double>(samples) : 0.0;
}

}  // namespace dps
