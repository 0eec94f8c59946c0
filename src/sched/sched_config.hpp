#pragma once

#include <string>

#include "sched/runtime.hpp"
#include "util/config_table.hpp"
#include "util/ini.hpp"

namespace dps::sched {

/// Loads the `[sched]` section of a DPS INI file (see configs/dps.ini)
/// into a JobScheduleConfig. Unset keys keep the defaults; unknown keys
/// are ignored (forward compatibility). Recognized layout:
///
///   [sched]
///   policy = fcfs              ; fcfs | backfill | power
///   seed = 2024
///   arrival_rate = 5.0         ; expected jobs per 1000 s (Poisson mode)
///   job_count = 40             ; jobs in the generated stream
///   min_units = 2              ; per-job unit request range
///   max_units = 8
///   workload_mix = Kmeans,GMM  ; names drawn uniformly (Poisson mode)
///   job_trace =                ; CSV replay file; overrides Poisson
///   retry_cap = 2              ; crash-requeues before a job is dropped
///   slowdown_bound = 10        ; [s] bounded-slowdown runtime floor
///   walltime_factor = 1.3      ; estimate = factor x nominal duration
///   power_fit_fraction = 1.0   ; power-aware admission headroom
///   min_shrink_fraction = 0.5  ; smallest power-aware grant fraction
///
/// A non-empty job_trace is loaded (and parsed) immediately into the
/// returned config's trace records. The workload resolver is NOT set
/// here — callers attach `workload_by_name` or their own table.
///
/// Throws std::runtime_error on an unreadable trace file and
/// std::invalid_argument "[sched]: key ... at line N" on a value that does
/// not parse or is out of range (unknown policy, empty workload_mix,
/// retry_cap < 0, non-positive rates/fractions, max_units < min_units).
JobScheduleConfig sched_config_from_ini(const IniFile& ini);
JobScheduleConfig sched_config_from_file(const std::string& path);

/// The scalar keys; policy, workload_mix and job_trace are read beside it.
const Section<JobScheduleConfig>& sched_section();

}  // namespace dps::sched
