#include "analysis/trace_analysis.hpp"

#include <algorithm>
#include <stdexcept>

#include "metrics/metrics.hpp"
#include "signal/rolling.hpp"

namespace dps {

Trace Trace::from_csv(const CsvReader& csv) {
  const std::size_t time = csv.require_column("time");
  const std::size_t unit = csv.require_column("unit");
  const std::size_t true_power = csv.require_column("true_power");
  const std::size_t measured = csv.require_column("measured_power");
  const std::size_t cap = csv.require_column("cap");
  const std::size_t demand = csv.require_column("demand");
  const auto priority = csv.column_index("priority");
  Trace trace;
  for (std::size_t r = 0; r < csv.num_rows(); ++r) {
    auto& series = trace.units_[csv.integer<int>(r, unit)];
    series.time.push_back(csv.real(r, time));
    series.true_power.push_back(csv.real(r, true_power));
    series.measured_power.push_back(csv.real(r, measured));
    series.cap.push_back(csv.real(r, cap));
    series.demand.push_back(csv.real(r, demand));
    const int p = priority ? csv.integer<int>(r, *priority) : -1;
    if (p < -1 || p > 1) csv.bad(r, *priority);
    series.priority.push_back(p);
  }
  if (trace.units_.empty()) {
    throw std::runtime_error(csv.source() + ": no samples");
  }
  // n distinct units are 0..n-1 unless one lies outside [0, n): the scan
  // then stops at its first row.
  const int n = trace.num_units();
  if (trace.units_.begin()->first != 0 ||
      trace.units_.rbegin()->first != n - 1) {
    for (std::size_t r = 0;; ++r) {
      const int u = csv.integer<int>(r, unit);
      if (u < 0 || u >= n) {
        csv.fail(r, "unit " + std::to_string(u) +
                        ", but units must be numbered 0.." +
                        std::to_string(n - 1));
      }
    }
  }
  return trace;
}

Trace Trace::load_csv(const std::string& path) {
  return from_csv(CsvReader::load(path));
}

const UnitTrace& Trace::unit(int u) const {
  const auto it = units_.find(u);
  if (it == units_.end()) {
    throw std::out_of_range("Trace: no unit " + std::to_string(u));
  }
  return it->second;
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
  // Assume aligned sampling across units (TraceRecorder guarantees it).
  const std::size_t samples = units_.begin()->second.cap.size();
  double total = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    double sum = 0.0;
    bool complete = true;
    for (const auto& [unit_id, series] : units_) {
      if (i >= series.cap.size()) {
        complete = false;
        break;
      }
      sum += series.cap[i];
    }
    if (complete) {
      total += sum;
      ++counted;
    }
  }
  return counted > 0 ? total / static_cast<double>(counted) : 0.0;
}

}  // namespace dps
