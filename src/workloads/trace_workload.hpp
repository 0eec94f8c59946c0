#pragma once

#include <span>
#include <string>

#include "util/csv_reader.hpp"
#include "workloads/spec.hpp"

namespace dps {

/// Builds a WorkloadSpec from a recorded power trace — the bridge between
/// real deployments and the simulator. Record a node's power at a fixed
/// period (e.g. with the SysfsRapl backend), feed the samples here, and
/// every manager can be evaluated against that exact demand profile
/// offline. Consecutive equal samples merge into holds; differing samples
/// become linear ramps. The power type is classified with the paper's
/// Table 2 rule (share of time above 110 W). Throws std::runtime_error on
/// fewer than two samples, a period that is not finite and > 0, or a
/// sample that is not a finite power >= 0.
WorkloadSpec workload_from_samples(std::span<const double> power_samples,
                                   Seconds sample_period, std::string name);

/// Same, reading a two-column CSV:
///   time_s,power_w
/// Only the first line may be a header (its time field is not a number).
/// Every other line, a blank one included, must hold exactly two fields in
/// the number syntax of util/ini.hpp: a finite time and a finite power
/// >= 0. The first two rows set the sample period, which must be > 0, and
/// every later time must advance by it (within 1 %). Throws
/// std::runtime_error on fewer than two samples, or on a row that breaks
/// these rules, naming its line.
WorkloadSpec workload_from_trace_csv(const CsvReader& csv, std::string name);

/// Same, over a file (errors cite its path). Throws std::runtime_error if
/// unreadable.
WorkloadSpec workload_from_trace_csv(const std::string& path,
                                     std::string name);

/// The Table 2 / Section 5.2 classification applied to any spec: low-power
/// below 10 % of time above 110 W, high-power above 2/3, mid-power in
/// between.
PowerType classify_power_type(const WorkloadSpec& spec);

}  // namespace dps
