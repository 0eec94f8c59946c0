/// Perf-smoke harness — the repo's tracked sweep-throughput baseline.
///
/// Times one fixed fig6-style grid (3 Spark x 2 NPB workloads x
/// {slurm, dps}) twice: serially (jobs=1) and in parallel (DPS_JOBS,
/// default hardware concurrency), each from a cold PairRunner so both
/// phases pay the same solo-baseline bill. Both phases dump their CSV and
/// the harness fails if the bytes differ — the determinism contract is
/// checked on every perf run, not just in the test suite.
///
/// Results land in BENCH_sweep.json (override with DPS_BENCH_JSON), the
/// perf-trajectory artifact CI uploads on every run; see
/// docs/performance.md for how to read it. Knobs:
///   DPS_JOBS               parallel worker count (default: available CPUs)
///   DPS_REPEATS            runs per workload (default 1 here: smoke scale)
///   DPS_PERF_MIN_SPEEDUP   exit nonzero if parallel/serial speedup falls
///                          below this (default 0 = never; CI sets 1.0)
///   DPS_PERF_MIN_STEPS_PER_S  exit nonzero if the serial phase's engine
///                          steps/s falls below this absolute floor
///                          (default 0 = never; CI pins a conservative one)
///   DPS_BENCH_JSON         output path (default "BENCH_sweep.json")

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "experiments/registry.hpp"
#include "util/csv.hpp"

namespace {

using namespace dps;

struct Task {
  std::string a, b;
  ManagerKind kind;
};

struct Phase {
  double wall_s = 0.0;
  long total_steps = 0;
  std::string csv_path;
};

std::vector<Task> fixed_grid() {
  const std::vector<std::string> spark = {"Kmeans", "LDA", "Sort"};
  const std::vector<std::string> npb = {"EP", "CG"};
  std::vector<Task> tasks;
  for (const auto& a : spark) {
    for (const auto& b : npb) {
      for (const auto kind : {ManagerKind::kSlurm, ManagerKind::kDps}) {
        tasks.push_back({a, b, kind});
      }
    }
  }
  return tasks;
}

Phase run_phase(const std::vector<Task>& tasks, int jobs, int repeats,
                const std::string& csv_path) {
  // Cold runner per phase: both phases recompute the solo baselines, so
  // the serial/parallel comparison is apples to apples.
  ExperimentParams params = dps::bench::params_from_env();
  params.repeats = repeats;
  PairRunner runner(params);

  const auto start = std::chrono::steady_clock::now();
  const auto outcomes = sweep_ordered(
      tasks.size(),
      [&](std::size_t i) {
        return runner.run_pair(workload_by_name(tasks[i].a),
                               workload_by_name(tasks[i].b), tasks[i].kind);
      },
      jobs);

  CsvWriter csv(csv_path);
  csv.write_header({"a", "b", "manager", "pair_hmean", "fairness"});
  Phase phase;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    phase.total_steps += outcomes[i].steps;
    csv.write_row({tasks[i].a, tasks[i].b, to_string(tasks[i].kind),
                   format_double(outcomes[i].pair_hmean, 4),
                   format_double(outcomes[i].fairness, 4)});
  }
  csv.flush();
  phase.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  phase.csv_path = csv_path;
  return phase;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

int main() {
  using namespace dps;
  const auto tasks = fixed_grid();
  const int repeats = static_cast<int>(bench::int_knob("DPS_REPEATS", 1, 1));
  const int jobs = bench::jobs_knob();
  const double min_speedup =
      bench::double_knob("DPS_PERF_MIN_SPEEDUP", 0.0, 0.0);
  const double min_steps_per_s =
      bench::double_knob("DPS_PERF_MIN_STEPS_PER_S", 0.0, 0.0);
  const std::string json_path =
      env_string("DPS_BENCH_JSON", "BENCH_sweep.json");
  const std::string out = dps::bench::out_dir();

  std::printf(
      "perf_smoke: fixed fig6-style grid, %zu tasks, repeats=%d, "
      "jobs=%d.\n",
      tasks.size(), repeats, jobs);

  const Phase serial =
      run_phase(tasks, 1, repeats, out + "/perf_smoke_serial.csv");
  std::printf("serial   (jobs=1):  %7.2f s, %ld engine steps, %.0f steps/s\n",
              serial.wall_s, serial.total_steps,
              serial.total_steps / serial.wall_s);

  const Phase parallel =
      run_phase(tasks, jobs, repeats, out + "/perf_smoke_parallel.csv");
  std::printf("parallel (jobs=%d): %7.2f s, %ld engine steps, %.0f steps/s\n",
              jobs, parallel.wall_s, parallel.total_steps,
              parallel.total_steps / parallel.wall_s);

  const bool identical =
      slurp(serial.csv_path) == slurp(parallel.csv_path) &&
      !slurp(serial.csv_path).empty();
  const double speedup = serial.wall_s / parallel.wall_s;
  std::printf("speedup %.2fx; CSV outputs %s\n", speedup,
              identical ? "byte-identical" : "DIFFER");

  {
    std::ofstream json(json_path, std::ios::trunc);
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\n"
        "  \"bench\": \"perf_smoke\",\n"
        "  \"schema_version\": 1,\n"
        "  \"grid\": \"3 spark x 2 npb x {slurm,dps}\",\n"
        "  \"tasks\": %zu,\n"
        "  \"repeats\": %d,\n"
        "  \"jobs\": %d,\n"
        "  \"hardware_threads\": %u,\n"
        "  \"total_engine_steps\": %ld,\n"
        "  \"serial_wall_s\": %.3f,\n"
        "  \"parallel_wall_s\": %.3f,\n"
        "  \"serial_steps_per_s\": %.0f,\n"
        "  \"parallel_steps_per_s\": %.0f,\n"
        "  \"speedup\": %.3f,\n"
        "  \"identical_csv\": %s\n"
        "}\n",
        tasks.size(), repeats, jobs, available_threads(),
        serial.total_steps, serial.wall_s, parallel.wall_s,
        serial.total_steps / serial.wall_s,
        parallel.total_steps / parallel.wall_s, speedup,
        identical ? "true" : "false");
    json << buf;
    if (!json) {
      std::fprintf(stderr, "perf_smoke: cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  std::printf("wrote %s\n", json_path.c_str());

  if (!identical) {
    std::fprintf(stderr,
                 "perf_smoke: FAIL — parallel CSV differs from serial\n");
    return 1;
  }
  if (serial.total_steps != parallel.total_steps) {
    std::fprintf(stderr, "perf_smoke: FAIL — step counts differ\n");
    return 1;
  }
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "perf_smoke: FAIL — speedup %.2fx below required %.2fx\n",
                 speedup, min_speedup);
    return 1;
  }
  const double serial_rate = serial.total_steps / serial.wall_s;
  if (min_steps_per_s > 0.0 && serial_rate < min_steps_per_s) {
    std::fprintf(stderr,
                 "perf_smoke: FAIL — serial %.0f steps/s below required "
                 "%.0f steps/s\n",
                 serial_rate, min_steps_per_s);
    return 1;
  }
  return 0;
}
