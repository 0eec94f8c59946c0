#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "experiments/pair_runner.hpp"
#include "experiments/registry.hpp"
#include "experiments/sweep.hpp"
#include "obs/sink.hpp"
#include "util/csv.hpp"

namespace dps {
namespace {

ExperimentParams quick_params() {
  ExperimentParams params;
  params.repeats = 1;
  params.seed = 11;
  return params;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(SweepJobs, EnvKnobWinsAndIsClampedToOne) {
  ::setenv("DPS_JOBS", "7", 1);
  EXPECT_EQ(sweep_jobs(), 7);
  ::setenv("DPS_JOBS", "0", 1);
  EXPECT_EQ(sweep_jobs(), 1);
  ::setenv("DPS_JOBS", "-4", 1);
  EXPECT_EQ(sweep_jobs(), 1);
  ::unsetenv("DPS_JOBS");
  EXPECT_GE(sweep_jobs(), 1);
}

TEST(TaskSeed, StableAndDistinctPerIndex) {
  const auto first = task_seed(11, 0);
  EXPECT_EQ(first, task_seed(11, 0));
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 100; ++i) seeds.push_back(task_seed(11, i));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  EXPECT_NE(task_seed(11, 3), task_seed(12, 3));
}

TEST(SweepOrdered, ResultsArriveInIndexOrderDespiteSkewedRuntimes) {
  const auto results = sweep_ordered(
      32,
      [](std::size_t i) {
        // Later tasks finish first; ordered collection must not care.
        std::this_thread::sleep_for(std::chrono::microseconds((32 - i) * 20));
        return static_cast<int>(i * 3);
      },
      8);
  ASSERT_EQ(results.size(), 32u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i * 3));
  }
}

TEST(SweepOrdered, SingleJobRunsInlineOnCallingThread) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  const auto results = sweep_ordered(
      8,
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);  // safe: serial path, no pool
        return i;
      },
      1);
  ASSERT_EQ(results.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_EQ(results[i], i);
  }
}

TEST(SweepOrdered, LowestIndexExceptionWinsAndAllTasksFinish) {
  std::atomic<int> completed{0};
  try {
    sweep_ordered(
        16,
        [&](std::size_t i) -> int {
          if (i == 3) throw std::runtime_error("task 3");
          if (i == 9) throw std::runtime_error("task 9");
          completed.fetch_add(1, std::memory_order_relaxed);
          return static_cast<int>(i);
        },
        4);
    FAIL() << "expected sweep_ordered to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3");
  }
  // The pool drains before sweep_ordered returns: every non-throwing task
  // ran even though collection aborted at index 3.
  EXPECT_EQ(completed.load(), 14);
}

TEST(SweepDeterminism, ParallelCsvIsByteIdenticalToSerial) {
  // The ISSUE's acceptance contract on a small fig6-style grid: a fresh
  // runner per jobs value, identical task order, CSV written from the
  // ordered results — DPS_JOBS=4 must reproduce DPS_JOBS=1 byte for byte.
  struct Task {
    std::string a, b;
    ManagerKind kind;
  };
  std::vector<Task> tasks;
  for (const auto* a : {"Kmeans", "LDA"}) {
    for (const auto* b : {"EP", "CG"}) {
      for (const auto kind : {ManagerKind::kSlurm, ManagerKind::kDps}) {
        tasks.push_back({a, b, kind});
      }
    }
  }

  auto run_grid = [&](int jobs, const std::string& csv_path) {
    PairRunner runner(quick_params());
    const auto outcomes = sweep_ordered(
        tasks.size(),
        [&](std::size_t i) {
          return runner.run_pair(workload_by_name(tasks[i].a),
                                 workload_by_name(tasks[i].b), tasks[i].kind);
        },
        jobs);
    CsvWriter csv(csv_path);
    csv.write_header({"a", "b", "manager", "pair_hmean", "fairness",
                      "peak_cap_sum"});
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      csv.write_row({tasks[i].a, tasks[i].b, to_string(tasks[i].kind),
                     format_double(outcomes[i].pair_hmean, 6),
                     format_double(outcomes[i].fairness, 6),
                     format_double(outcomes[i].peak_cap_sum, 6)});
    }
    csv.flush();
  };

  const std::string serial_path = ::testing::TempDir() + "sweep_serial.csv";
  const std::string parallel_path =
      ::testing::TempDir() + "sweep_parallel.csv";
  run_grid(1, serial_path);
  run_grid(4, parallel_path);

  const std::string serial = slurp(serial_path);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, slurp(parallel_path));
}

TEST(PairRunnerConcurrency, SoloBaselineComputedOnceUnderContention) {
  PairRunner reference(quick_params());
  const double ref_hmean = reference.baseline_hmean(workload_by_name("Sort"));

  // Eight concurrent cache misses on the same workload: the once-flag must
  // collapse them into a single simulation.
  PairRunner runner(quick_params());
  const auto hmeans = sweep_ordered(
      8,
      [&](std::size_t) {
        return runner.baseline_hmean(workload_by_name("Sort"));
      },
      4);
  for (const double h : hmeans) EXPECT_DOUBLE_EQ(h, ref_hmean);
  EXPECT_EQ(runner.solo_runs(), 1);
}

TEST(ObsConcurrency, SharedSinkCountsEveryStepAcrossParallelSweep) {
  // One enabled sink shared by every task of a parallel sweep: the atomic
  // counters must not lose updates — engine_steps_total equals the sum of
  // the per-run step counts the engine reported.
  ExperimentParams params = quick_params();
  params.obs = obs::ObsSink::create();
  PairRunner runner(params);
  const auto a = workload_by_name("Kmeans");
  const auto b = workload_by_name("GMM");
  obs::Counter* steps_total = params.obs.counter("engine_steps_total");

  const std::vector<ManagerKind> kinds = {
      ManagerKind::kConstant, ManagerKind::kSlurm, ManagerKind::kDps,
      ManagerKind::kConstant, ManagerKind::kSlurm, ManagerKind::kDps};
  const auto outcomes = sweep_ordered(
      kinds.size(), [&](std::size_t i) { return runner.run_pair(a, b, kinds[i]); },
      4);

  long expected = 0;
  for (const auto& outcome : outcomes) expected += outcome.steps;
  EXPECT_GT(expected, 0);
  // The solo baselines the tasks race to fill record nothing.
  EXPECT_EQ(steps_total->value(), static_cast<std::uint64_t>(expected));
}

}  // namespace
}  // namespace dps
