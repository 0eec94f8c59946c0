#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sched/job.hpp"
#include "util/csv_reader.hpp"

namespace dps::sched {

/// Knobs of the deterministic Poisson arrival generator: exponential
/// inter-arrival gaps at `rate_per_1000s` expected jobs per 1000 simulated
/// seconds (the same unit the fault rates use), workload names drawn
/// uniformly from `workloads`, unit counts uniform in
/// [min_units, max_units]. The whole stream is realized up-front from
/// `seed`, so a run's arrivals never depend on anything the scheduler or
/// the power manager does.
struct PoissonArrivalConfig {
  std::uint64_t seed = 2024;
  double rate_per_1000s = 5.0;
  /// Jobs in the generated stream (an open stream is truncated here).
  int count = 40;
  std::vector<std::string> workloads;
  int min_units = 2;
  int max_units = 8;
};

/// A materialized, time-sorted arrival stream the runtime drains as
/// simulated time passes. Built either from a Poisson draw or from a
/// replayed trace file.
class ArrivalStream {
 public:
  ArrivalStream() = default;

  /// Takes an explicit record list (trace replay, tests). Throws
  /// std::invalid_argument on negative times, non-positive unit counts,
  /// or out-of-order records.
  static ArrivalStream from_records(std::vector<JobArrival> records);

  /// Draws a deterministic Poisson stream. Throws std::invalid_argument
  /// on a non-positive rate with count > 0, an empty workload list, or an
  /// empty/inverted unit range.
  static ArrivalStream poisson(const PoissonArrivalConfig& config);

  const std::vector<JobArrival>& records() const { return records_; }

  /// Records due at or before `now` that have not been drained yet.
  bool has_due(Seconds now) const {
    return next_ < records_.size() && records_[next_].time <= now;
  }
  JobArrival take() { return records_[next_++]; }
  bool exhausted() const { return next_ >= records_.size(); }

 private:
  std::vector<JobArrival> records_;
  std::size_t next_ = 0;
};

/// Reads a job trace: one `arrival_time, workload_name, n_units,
/// walltime` record per row, fields trimmed of surrounding blanks. Skipped
/// rows: blank lines, comments (a first field starting with `#` or `;`;
/// comments pass through the CSV tokenizer, so a `"` in one must be
/// balanced) and header rows (a first field of exactly "arrival_time").
/// Records must be sorted by arrival_time. Throws std::runtime_error
/// naming the 1-based line on any malformed row: wrong field count, a
/// time or walltime that is not a finite number, an n_units that is not an
/// int, negative time, empty workload name, n_units < 1, walltime <= 0, or
/// out-of-order times.
std::vector<JobArrival> parse_job_trace(const CsvReader& csv);

/// Same, over trace text (errors cite "job trace").
std::vector<JobArrival> parse_job_trace(const std::string& text);

/// Same, over a trace file (errors cite its path). Throws
/// std::runtime_error if unreadable.
std::vector<JobArrival> load_job_trace(const std::string& path);

}  // namespace dps::sched
