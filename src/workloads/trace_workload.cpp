#include "workloads/trace_workload.hpp"

#include <cmath>
#include <stdexcept>

namespace dps {
namespace {

/// How far a trace's time step may stray from its first period, as a
/// share of that period: sampling jitter passes, a missed sample does not.
constexpr double kPeriodTolerance = 0.01;

}  // namespace

PowerType classify_power_type(const WorkloadSpec& spec) {
  const double above = spec.fraction_above(110.0);
  if (above > 2.0 / 3.0) return PowerType::kHigh;
  if (above >= 0.10) return PowerType::kMid;
  return PowerType::kLow;
}

WorkloadSpec workload_from_samples(std::span<const double> power_samples,
                                   Seconds sample_period, std::string name) {
  if (power_samples.size() < 2) {
    throw std::runtime_error("workload_from_samples: need >= 2 samples");
  }
  if (!std::isfinite(sample_period) || sample_period <= 0.0) {
    throw std::runtime_error(
        "workload_from_samples: period must be finite and > 0");
  }
  for (std::size_t i = 0; i < power_samples.size(); ++i) {
    if (!std::isfinite(power_samples[i]) || power_samples[i] < 0.0) {
      throw std::runtime_error("workload_from_samples: sample " +
                               std::to_string(i) +
                               " must be a finite power >= 0");
    }
  }

  WorkloadSpec spec;
  spec.name = std::move(name);
  // A replayed trace is a fixed recording: no synthetic jitter.
  spec.duration_jitter = 0.0;
  spec.power_jitter = 0.0;
  spec.socket_skew = 0.0;

  // Merge runs of (nearly) equal samples into single holds; everything
  // else becomes a linear ramp between consecutive samples.
  constexpr double kMergeEpsilon = 0.25;  // watts
  std::size_t i = 0;
  while (i + 1 < power_samples.size()) {
    const double level = power_samples[i];
    std::size_t j = i;
    while (j + 1 < power_samples.size() &&
           std::abs(power_samples[j + 1] - level) <= kMergeEpsilon) {
      ++j;
    }
    if (j > i) {
      spec.segments.push_back(
          hold(static_cast<double>(j - i) * sample_period, level));
      i = j;
    } else {
      spec.segments.push_back(
          ramp(sample_period, level, power_samples[i + 1]));
      ++i;
    }
  }

  spec.power_type = classify_power_type(spec);
  return spec;
}

WorkloadSpec workload_from_trace_csv(const CsvReader& csv, std::string name) {
  std::vector<double> powers;
  Seconds period = 0.0;
  Seconds last_time = 0.0;
  for (std::size_t r = 0; r < csv.num_rows(); ++r) {
    if (r == 0 && !parse_double(trim(csv.cell(r, 0)))) continue;  // header
    if (csv.num_fields(r) != 2) csv.fail(r, "need two fields, time_s,power_w");
    const double time = csv.real(r, 0, "time");
    const double power = csv.real(r, 1, "power");
    if (power < 0.0) csv.bad(r, 1, "power");
    if (powers.size() == 1) {
      period = time - last_time;
      if (period <= 0.0) csv.fail(r, "time does not increase");
    } else if (!powers.empty() &&
               std::abs(time - last_time - period) >
                   kPeriodTolerance * period) {
      csv.fail(r, "time does not advance by the first period (" +
                      std::to_string(period) + " s)");
    }
    last_time = time;
    powers.push_back(power);
  }
  if (powers.size() < 2) {
    throw std::runtime_error(csv.source() + ": fewer than 2 samples");
  }
  return workload_from_samples(powers, period, std::move(name));
}

WorkloadSpec workload_from_trace_csv(const std::string& path,
                                     std::string name) {
  return workload_from_trace_csv(CsvReader::load(path, false),
                                 std::move(name));
}

}  // namespace dps
