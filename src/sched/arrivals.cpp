#include "sched/arrivals.hpp"

#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace dps::sched {
namespace {

void validate(const std::vector<JobArrival>& records) {
  Seconds last = 0.0;
  for (const auto& r : records) {
    if (!(r.time >= 0.0)) {
      throw std::invalid_argument("ArrivalStream: negative arrival time");
    }
    if (r.time < last) {
      throw std::invalid_argument("ArrivalStream: records out of order");
    }
    if (r.n_units < 1) {
      throw std::invalid_argument("ArrivalStream: n_units must be >= 1");
    }
    if (r.workload.empty()) {
      throw std::invalid_argument("ArrivalStream: empty workload name");
    }
    last = r.time;
  }
}

}  // namespace

ArrivalStream ArrivalStream::from_records(std::vector<JobArrival> records) {
  validate(records);
  ArrivalStream stream;
  stream.records_ = std::move(records);
  return stream;
}

ArrivalStream ArrivalStream::poisson(const PoissonArrivalConfig& config) {
  if (config.count < 0) {
    throw std::invalid_argument("PoissonArrivalConfig: count must be >= 0");
  }
  if (config.count > 0) {
    if (config.rate_per_1000s <= 0.0) {
      throw std::invalid_argument("PoissonArrivalConfig: rate must be > 0");
    }
    if (config.workloads.empty()) {
      throw std::invalid_argument(
          "PoissonArrivalConfig: need at least one workload name");
    }
    if (config.min_units < 1 || config.max_units < config.min_units) {
      throw std::invalid_argument("PoissonArrivalConfig: bad unit range");
    }
  }
  Rng rng(config.seed);
  const double mean_gap = 1000.0 / config.rate_per_1000s;
  std::vector<JobArrival> records;
  records.reserve(static_cast<std::size_t>(config.count));
  Seconds at = 0.0;
  for (int i = 0; i < config.count; ++i) {
    // Exponential inter-arrival gap via inverse transform.
    double u = 0.0;
    while (u == 0.0) u = rng.uniform();
    at += -mean_gap * std::log(u);
    JobArrival record;
    record.time = at;
    record.workload = config.workloads[static_cast<std::size_t>(
        rng.uniform_int(config.workloads.size()))];
    record.n_units =
        config.min_units +
        static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(
            config.max_units - config.min_units + 1)));
    record.walltime = 0.0;  // filled from the spec at submit time
    records.push_back(std::move(record));
  }
  return from_records(std::move(records));
}

std::vector<JobArrival> parse_job_trace(const CsvReader& csv) {
  std::vector<JobArrival> records;
  for (std::size_t r = 0; r < csv.num_rows(); ++r) {
    const std::string_view first = trim(csv.cell(r, 0));
    if (first.empty() && csv.num_fields(r) == 1) continue;  // blank line
    if (first.starts_with('#') || first.starts_with(';') ||
        first == "arrival_time") {
      continue;  // a comment or the header
    }
    if (csv.num_fields(r) != 4) {
      csv.fail(r, "expected 4 fields (arrival_time, workload_name, "
                  "n_units, walltime), got " +
                      std::to_string(csv.num_fields(r)));
    }
    JobArrival record;
    record.time = csv.real(r, 0, "arrival_time");
    if (record.time < 0.0) csv.fail(r, "negative arrival_time");
    if (!records.empty() && record.time < records.back().time) {
      csv.fail(r, "arrival_time not sorted (goes backwards)");
    }
    record.workload = trim(csv.cell(r, 1));
    if (record.workload.empty()) csv.fail(r, "empty workload_name");
    record.n_units = csv.integer<int>(r, 2, "n_units");
    if (record.n_units < 1) csv.fail(r, "n_units must be >= 1");
    record.walltime = csv.real(r, 3, "walltime");
    if (record.walltime <= 0.0) csv.fail(r, "walltime must be > 0");
    records.push_back(std::move(record));
  }
  return records;
}

std::vector<JobArrival> parse_job_trace(const std::string& text) {
  return parse_job_trace(CsvReader::parse(text, false, "job trace"));
}

std::vector<JobArrival> load_job_trace(const std::string& path) {
  return parse_job_trace(CsvReader::load(path, false));
}

}  // namespace dps::sched
