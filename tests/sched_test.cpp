// Tests for the power-aware job scheduling subsystem (src/sched/):
// arrival streams and trace parsing, queue ordering, the FCFS / EASY
// backfill / power-aware policies, crash requeue with the retry cap, and
// deterministic end-to-end job_schedule runs through the engine.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/dps_manager.hpp"
#include "experiments/registry.hpp"
#include "managers/constant.hpp"
#include "obs/exporters.hpp"
#include "obs/obs_config.hpp"
#include "sched/arrivals.hpp"
#include "sched/queue.hpp"
#include "sched/runtime.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"

namespace {

using namespace dps;
using namespace dps::sched;

WorkloadSpec flat_spec(const std::string& name, Seconds duration,
                       Watts power) {
  WorkloadSpec spec;
  spec.name = name;
  spec.segments = {hold(duration, power)};
  spec.inter_run_gap = 0.0;
  spec.duration_jitter = 0.0;
  spec.power_jitter = 0.0;
  spec.socket_skew = 0.0;
  return spec;
}

Job queued_job(int id, int units, Seconds walltime, Seconds submit,
               const WorkloadSpec& spec) {
  Job job;
  job.id = id;
  job.arrival = JobArrival{submit, spec.name, units, walltime};
  job.spec = spec;
  job.submit_time = submit;
  job.walltime = walltime;
  return job;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---------------------------------------------------------------- arrivals

TEST(ArrivalStreamTest, PoissonIsDeterministicAndSorted) {
  PoissonArrivalConfig config;
  config.seed = 99;
  config.rate_per_1000s = 10.0;
  config.count = 50;
  config.workloads = {"A", "B", "C"};
  const auto one = ArrivalStream::poisson(config);
  const auto two = ArrivalStream::poisson(config);
  ASSERT_EQ(one.records().size(), 50u);
  EXPECT_EQ(one.records(), two.records());
  Seconds last = 0.0;
  for (const auto& r : one.records()) {
    EXPECT_GE(r.time, last);
    EXPECT_GE(r.n_units, config.min_units);
    EXPECT_LE(r.n_units, config.max_units);
    last = r.time;
  }

  config.seed = 100;
  EXPECT_NE(ArrivalStream::poisson(config).records(), one.records());
}

TEST(ArrivalStreamTest, RejectsUnsortedAndInvalidRecords) {
  EXPECT_THROW(ArrivalStream::from_records(
                   {{10.0, "A", 2, 100.0}, {5.0, "A", 2, 100.0}}),
               std::invalid_argument);
  EXPECT_THROW(ArrivalStream::from_records({{0.0, "A", 0, 100.0}}),
               std::invalid_argument);
  EXPECT_THROW(ArrivalStream::from_records({{0.0, "", 2, 100.0}}),
               std::invalid_argument);
}

TEST(JobTraceTest, GoldenFileParsesExactly) {
  const auto records =
      load_job_trace(DPS_SOURCE_DIR "/tests/data/job_trace.csv");
  const std::vector<JobArrival> expected = {
      {0.0, "Kmeans", 4, 900.0},  {120.5, "GMM", 2, 600.0},
      {300.0, "Kmeans", 6, 1800.0}, {300.0, "EP", 1, 250.0},
      {1250.0, "GMM", 3, 700.0},
  };
  EXPECT_EQ(records, expected);
}

void expect_rejected(const std::string& text, const std::string& line_tag) {
  try {
    parse_job_trace(text);
    FAIL() << "expected rejection of: " << text;
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(line_tag), std::string::npos)
        << "message was: " << error.what();
  }
}

TEST(JobTraceTest, MalformedLinesRejectedWithLineNumbers) {
  expect_rejected("0, Kmeans, 4\n", "line 1");               // field count
  expect_rejected("# ok\n0, Kmeans, 4, abc\n", "line 2");    // bad number
  expect_rejected("-5, Kmeans, 4, 100\n", "line 1");         // negative time
  expect_rejected("10, Kmeans, 4, 100\n5, GMM, 2, 50\n",
                  "line 2");                                 // out of order
  expect_rejected("0, Kmeans, 0, 100\n", "line 1");          // zero units
  expect_rejected("0, Kmeans, 2.5, 100\n", "line 1");        // fractional
  expect_rejected("0, Kmeans, 4, 0\n", "line 1");            // walltime
  expect_rejected("0, , 4, 100\n", "line 1");                // empty name
}

TEST(JobTraceTest, UnitCountsThatAreNotIntsRejectedNamingTheLine) {
  expect_rejected("0, Kmeans, 1e10, 100\n", "line 1: bad n_units ' 1e10'");
  expect_rejected("# head\n0, Kmeans, 2.5, 100\n",
                  "line 2: bad n_units ' 2.5'");
  expect_rejected("0, Kmeans, 2147483648, 100\n", "line 1: bad n_units");
  // Through the file loader that `exp --job-trace` calls, errors cite the
  // path.
  const std::string path = testing::TempDir() + "/job_trace_1e10.csv";
  std::ofstream(path) << "0, Kmeans, 1e10, 100\n";
  try {
    load_job_trace(path);
    ADD_FAILURE() << "accepted an n_units of 1e10";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()),
              path + ": line 1: bad n_units ' 1e10'");
  }
}

TEST(JobTraceTest, BlankLinesSkippedAndCommentQuotesBalanced) {
  const auto records = parse_job_trace(
      "\n"
      "   \r\n"
      "# a \"quoted\" word, and a comma\n"
      "1.5, GMM, 2, 42\n"
      "\t\n");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], (JobArrival{1.5, "GMM", 2, 42.0}));
  // A comment is tokenized like any row: an unbalanced quote runs on.
  expect_rejected("1.5, GMM, 2, 42\n# a 3.5\" disk\n2, GMM, 2, 42\n",
                  "line 2: unterminated quoted field");
  // Only a first field of exactly arrival_time is a header.
  expect_rejected("time, workload_name, n_units, walltime\n",
                  "line 1: bad arrival_time 'time'");
}

TEST(JobTraceTest, HeaderCommentsAndBlanksAccepted) {
  const auto records = parse_job_trace(
      "arrival_time, workload_name, n_units, walltime\n"
      "# comment\n"
      "\n"
      "; another comment\n"
      "1.5, GMM, 2, 42\n");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], (JobArrival{1.5, "GMM", 2, 42.0}));
}

// ------------------------------------------------------------------- queue

TEST(JobQueueTest, RequeueKeepsOriginalPosition) {
  const auto spec = flat_spec("w", 100.0, 80.0);
  JobQueue queue;
  queue.submit(queued_job(0, 2, 100.0, 0.0, spec));
  queue.submit(queued_job(1, 2, 100.0, 10.0, spec));
  queue.submit(queued_job(2, 2, 100.0, 20.0, spec));

  // A crash victim submitted at t=0 re-enters ahead of later arrivals.
  Job victim = queue.take(0);
  victim.retries = 1;
  queue.requeue(std::move(victim));
  ASSERT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.at(0).id, 0);
  EXPECT_EQ(queue.at(1).id, 1);

  // One submitted between the remaining two lands in the middle.
  queue.requeue(queued_job(3, 2, 100.0, 15.0, spec));
  EXPECT_EQ(queue.at(0).id, 0);
  EXPECT_EQ(queue.at(1).id, 1);
  EXPECT_EQ(queue.at(2).id, 3);
  EXPECT_EQ(queue.at(3).id, 2);
}

// ---------------------------------------------------------------- policies

SchedView basic_view(int total, int free, Watts budget = 1e6) {
  SchedView view;
  view.total_units = total;
  view.free_units = free;
  view.budget = budget;
  view.idle_power = kIdlePower;
  return view;
}

TEST(FcfsTest, HeadBlocksEverythingBehindIt) {
  const auto spec = flat_spec("w", 100.0, 80.0);
  JobQueue queue;
  queue.submit(queued_job(0, 8, 1000.0, 0.0, spec));  // does not fit
  queue.submit(queued_job(1, 2, 50.0, 1.0, spec));    // would fit

  FcfsScheduler fcfs;
  const auto outcome = fcfs.schedule(queue, basic_view(10, 4));
  EXPECT_TRUE(outcome.placements.empty());
}

TEST(FcfsTest, PlacesHeadJobsWhileTheyFit) {
  const auto spec = flat_spec("w", 100.0, 80.0);
  JobQueue queue;
  for (int id = 0; id < 3; ++id) {
    queue.submit(queued_job(id, 4, 100.0, id, spec));
  }
  FcfsScheduler fcfs;
  const auto outcome = fcfs.schedule(queue, basic_view(10, 10));
  ASSERT_EQ(outcome.placements.size(), 2u);
  EXPECT_EQ(outcome.placements[0].queue_index, 0u);
  EXPECT_EQ(outcome.placements[1].queue_index, 1u);
  EXPECT_EQ(outcome.placements[0].granted_units, 4);
}

TEST(BackfillTest, OnlyJobsThatCannotDelayTheReservationJumpAhead) {
  const auto spec = flat_spec("w", 100.0, 80.0);
  JobQueue queue;
  queue.submit(queued_job(0, 8, 1000.0, 0.0, spec));  // blocked head
  queue.submit(queued_job(1, 2, 50.0, 1.0, spec));    // ends before shadow
  queue.submit(queued_job(2, 2, 500.0, 2.0, spec));   // would delay head

  // 4 units free now; a running 5-unit job frees at t=100, so the head's
  // reservation is (shadow=100, extra=1): job 1 finishes before the
  // shadow and backfills, job 2 ends after it and needs more than the
  // spare unit, so it must wait.
  auto view = basic_view(10, 4);
  view.running = {RunningJob{100.0, 5}};

  EasyBackfillScheduler backfill;
  const auto outcome = backfill.schedule(queue, view);
  ASSERT_EQ(outcome.placements.size(), 1u);
  EXPECT_EQ(outcome.placements[0].queue_index, 1u);
  EXPECT_EQ(outcome.placements[0].granted_units, 2);

  // FCFS on the identical state starts nothing.
  FcfsScheduler fcfs;
  EXPECT_TRUE(fcfs.schedule(queue, view).placements.empty());
}

TEST(PowerAwareTest, DelaysJobsUnderTightBudget) {
  const auto hungry = flat_spec("hungry", 1000.0, 120.0);
  JobQueue queue;
  queue.submit(queued_job(0, 4, 1000.0, 0.0, hungry));

  // 2 units already draw 200 W of a 400 W budget: even the smallest
  // shrink of the 4-unit, 120 W/unit head cannot fit, so it waits and the
  // stall is reported.
  auto view = basic_view(10, 8, 400.0);
  view.running = {RunningJob{100.0, 2}};
  view.running_demand = 200.0;

  PowerAwareScheduler power;
  const auto gated = power.schedule(queue, view);
  EXPECT_TRUE(gated.placements.empty());
  EXPECT_GE(gated.power_stalls, 1);

  // The same job sails through once the budget allows it.
  view.budget = 2000.0;
  const auto admitted = power.schedule(queue, view);
  ASSERT_EQ(admitted.placements.size(), 1u);
  EXPECT_EQ(admitted.placements[0].granted_units, 4);
  EXPECT_EQ(admitted.power_stalls, 0);
}

TEST(PowerAwareTest, ShrinksTheHeadBeforeDelayingIt) {
  const auto hungry = flat_spec("hungry", 1000.0, 100.0);
  JobQueue queue;
  queue.submit(queued_job(0, 4, 1000.0, 0.0, hungry));

  // 450 W budget: 4 units (532 W projected) and 3 units (454 W) both
  // overshoot, 2 units (376 W) fits — the head starts at half width.
  auto view = basic_view(10, 9, 450.0);
  view.running = {RunningJob{50.0, 1}};
  view.running_demand = kIdlePower;

  PowerAwareScheduler power;
  const auto outcome = power.schedule(queue, view);
  ASSERT_EQ(outcome.placements.size(), 1u);
  EXPECT_EQ(outcome.placements[0].granted_units, 2);
}

// ------------------------------------------------------- runtime / faults

TEST(SchedRuntimeTest, CodeBuiltConfigMeetsTheSchedTable) {
  JobScheduleConfig config;
  config.retry_cap = -1;
  config.resolve = [](const std::string&) {
    return flat_spec("short", 10.0, 100.0);
  };
  obs::ObsSink obs;  // disabled
  try {
    SchedRuntime runtime(config, 4, obs);
    FAIL() << "retry_cap -1 was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()).rfind("[sched]: retry_cap", 0), 0u)
        << error.what();
  }
}

TEST(SchedRuntimeTest, RequeuesCrashVictimsUpToRetryCap) {
  JobScheduleConfig config;
  config.policy = SchedPolicy::kFcfs;
  config.trace = {{0.0, "long", 2, 10000.0}};
  config.retry_cap = 1;
  config.resolve = [](const std::string&) {
    return flat_spec("long", 5000.0, 100.0);
  };

  obs::ObsSink obs;  // disabled
  Cluster cluster(4);
  SchedRuntime runtime(config, cluster.total_units(), obs);
  const std::vector<Watts> caps(4, 110.0);

  runtime.begin_tick(cluster, 0.0, 1e6, caps);
  EXPECT_EQ(runtime.busy_units(), 2);
  EXPECT_FALSE(runtime.finished());

  // First crash: the job is evicted and restarts on healthy units.
  cluster.set_crashed(0, true);
  runtime.begin_tick(cluster, 1.0, 1e6, caps);
  EXPECT_EQ(runtime.busy_units(), 2);
  EXPECT_EQ(runtime.stats(1.0, 4).requeued, 1);
  EXPECT_EQ(runtime.stats(1.0, 4).abandoned, 0);

  // Second crash exceeds retry_cap = 1: the job is abandoned and the run
  // is over.
  cluster.set_crashed(1, true);
  runtime.begin_tick(cluster, 2.0, 1e6, caps);
  EXPECT_EQ(runtime.busy_units(), 0);
  EXPECT_EQ(runtime.stats(2.0, 4).requeued, 2);
  EXPECT_EQ(runtime.stats(2.0, 4).abandoned, 1);
  EXPECT_EQ(runtime.stats(2.0, 4).completed, 0);
  EXPECT_TRUE(runtime.finished());
}

/// One engine tick by hand at full speed: the scheduling round, the
/// cluster step, the bookkeeping.
void tick(SchedRuntime& runtime, Cluster& cluster) {
  const auto n = static_cast<std::size_t>(cluster.total_units());
  const std::vector<Watts> caps(n, 200.0);
  std::vector<Watts> power(n);
  runtime.begin_tick(cluster, cluster.now(), 1e6, caps);
  cluster.step(1.0, caps, power);
  runtime.end_tick(cluster, cluster.now(), 1.0);
}

std::vector<int> busy_units_of(const Cluster& cluster) {
  std::vector<int> busy;
  for (int u = 0; u < cluster.total_units(); ++u) {
    if (cluster.unit_busy(u)) busy.push_back(u);
  }
  return busy;
}

TEST(SchedRuntimeTest, CrashVictimRestartsOnLowestIdleHealthyUnits) {
  JobScheduleConfig config;
  config.trace = {{0.0, "long", 2, 10000.0}, {0.0, "long", 2, 10000.0}};
  config.resolve = [](const std::string&) {
    return flat_spec("long", 5000.0, 100.0);
  };
  obs::ObsSink obs;  // disabled
  Cluster cluster(6);
  SchedRuntime runtime(config, cluster.total_units(), obs);
  tick(runtime, cluster);
  EXPECT_EQ(busy_units_of(cluster), (std::vector<int>{0, 1, 2, 3}));

  // Job 0 loses unit 1: it restarts on unit 0, its own healthy unit, and
  // unit 4, skipping crashed unit 1 and job 1's units 2 and 3.
  cluster.set_crashed(1, true);
  tick(runtime, cluster);
  EXPECT_EQ(busy_units_of(cluster), (std::vector<int>{0, 2, 3, 4}));
  EXPECT_EQ(runtime.busy_units(), 4);
  EXPECT_EQ(runtime.stats(cluster.now(), 6).requeued, 1);
}

TEST(SchedRuntimeTest, JobsFinishingInOneStepRetireInStartOrder) {
  JobScheduleConfig config;
  config.trace = {{0.0, "a", 2, 100.0}, {0.0, "b", 2, 100.0}};
  config.resolve = [](const std::string& name) {
    return flat_spec(name, name == "a" ? 10.0 : 11.0, 100.0);
  };
  obs::ObsSink obs;  // disabled
  Cluster cluster(5);
  SchedRuntime runtime(config, cluster.total_units(), obs);
  tick(runtime, cluster);
  // Job 0 loses a unit and restarts one second after job 1 started, so
  // both end at 11 s, job 1 first in start order.
  cluster.set_crashed(0, true);
  while (!runtime.finished() && cluster.now() < 20.0) tick(runtime, cluster);
  const std::vector<JobOutcome>& outcomes = runtime.outcomes();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].id, 1);
  EXPECT_EQ(outcomes[1].id, 0);
  EXPECT_EQ(outcomes[0].start, 0.0);
  EXPECT_EQ(outcomes[1].start, 1.0);
  EXPECT_EQ(outcomes[0].end, 11.0);
  EXPECT_EQ(outcomes[1].end, 11.0);
}

TEST(SchedRuntimeTest, UtilizationChargesTheStepAJobFinishesIn) {
  JobScheduleConfig config;
  config.trace = {{3.0, "short", 2, 100.0}};
  config.resolve = [](const std::string&) {
    return flat_spec("short", 10.0, 100.0);
  };
  obs::ObsSink obs;  // disabled
  Cluster cluster(4);
  SchedRuntime runtime(config, cluster.total_units(), obs);
  while (!runtime.finished() && cluster.now() < 50.0) tick(runtime, cluster);
  // Two units busy from 3 s to 13 s, on four units over 13 s.
  ASSERT_EQ(cluster.now(), 13.0);
  const SchedStats stats = runtime.stats(cluster.now(), 4);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.mean_utilization, 20.0 / (13.0 * 4.0));
}

// ------------------------------------------------------------- end to end

EngineConfig job_config(SchedPolicy policy, std::uint64_t seed,
                        bool with_obs = false) {
  JobScheduleConfig js;
  js.policy = policy;
  js.seed = seed;
  js.arrival_rate_per_1000s = 12.0;
  js.job_count = 8;
  js.workload_mix = {"Kmeans", "GMM"};
  js.min_units = 2;
  js.max_units = 5;
  js.resolve = [](const std::string& name) { return workload_by_name(name); };

  EngineConfig config;
  config.total_budget = 110.0 * 10;
  config.job_schedule = js;
  if (with_obs) {
    obs::ObsConfig obs_config;
    obs_config.enabled = true;
    // Span durations are wall-clock and would differ between runs; every
    // other event is stamped with simulated time.
    obs_config.span_events = false;
    config.obs = obs::make_sink(obs_config);
  }
  return config;
}

TEST(SchedEndToEndTest, SeededRunIsDeterministic) {
  const std::string csv_one = testing::TempDir() + "/sched_events_one.csv";
  const std::string csv_two = testing::TempDir() + "/sched_events_two.csv";

  auto config_one = job_config(SchedPolicy::kEasyBackfill, 7, true);
  DpsManager manager_one;
  const auto one = run_jobs(manager_one, config_one, 10);
  obs::write_events_csv(config_one.obs.observer()->events(), csv_one);

  auto config_two = job_config(SchedPolicy::kEasyBackfill, 7, true);
  DpsManager manager_two;
  const auto two = run_jobs(manager_two, config_two, 10);
  obs::write_events_csv(config_two.obs.observer()->events(), csv_two);

  EXPECT_EQ(one.sched.submitted, 8);
  EXPECT_EQ(one.sched.completed, 8);
  EXPECT_FALSE(one.timed_out);

  // Identical KPIs, step counts, and job lifecycles, bit for bit.
  EXPECT_EQ(one.steps, two.steps);
  EXPECT_EQ(one.elapsed, two.elapsed);
  EXPECT_EQ(one.sched.completed, two.sched.completed);
  EXPECT_EQ(one.sched.mean_wait, two.sched.mean_wait);
  EXPECT_EQ(one.sched.mean_bounded_slowdown, two.sched.mean_bounded_slowdown);
  EXPECT_EQ(one.sched.mean_utilization, two.sched.mean_utilization);
  ASSERT_EQ(one.job_outcomes.size(), two.job_outcomes.size());
  for (std::size_t i = 0; i < one.job_outcomes.size(); ++i) {
    EXPECT_EQ(one.job_outcomes[i].id, two.job_outcomes[i].id);
    EXPECT_EQ(one.job_outcomes[i].start, two.job_outcomes[i].start);
    EXPECT_EQ(one.job_outcomes[i].end, two.job_outcomes[i].end);
    EXPECT_EQ(one.job_outcomes[i].granted_units,
              two.job_outcomes[i].granted_units);
  }

  // And an identical event stream on disk.
  const std::string events_one = slurp(csv_one);
  EXPECT_FALSE(events_one.empty());
  EXPECT_NE(events_one.find("job_submit"), std::string::npos);
  EXPECT_NE(events_one.find("job_start"), std::string::npos);
  EXPECT_NE(events_one.find("job_end"), std::string::npos);
  EXPECT_EQ(events_one, slurp(csv_two));
  std::remove(csv_one.c_str());
  std::remove(csv_two.c_str());
}

TEST(SchedEndToEndTest, GoldenTraceReplayDrains) {
  JobScheduleConfig js;
  js.policy = SchedPolicy::kFcfs;
  js.trace = load_job_trace(DPS_SOURCE_DIR "/tests/data/job_trace.csv");
  js.resolve = [](const std::string& name) { return workload_by_name(name); };

  EngineConfig config;
  config.total_budget = 110.0 * 8;
  config.job_schedule = js;
  ConstantManager manager;
  const auto result = run_jobs(manager, config, 8);
  EXPECT_EQ(result.sched.submitted, 5);
  EXPECT_EQ(result.sched.completed, 5);
  EXPECT_FALSE(result.timed_out);
  EXPECT_LE(result.peak_cap_sum, config.total_budget + 1e-6);
}

TEST(SchedEndToEndTest, TimedOutSetWhenMaxTimeFiresFirst) {
  auto config = job_config(SchedPolicy::kFcfs, 11);
  config.max_time = 50.0;
  DpsManager manager;
  const auto result = run_jobs(manager, config, 10);
  EXPECT_TRUE(result.timed_out);
  EXPECT_LT(result.sched.completed, result.sched.submitted);
}

TEST(SchedEndToEndTest, BackfillNeverDoesWorseThanFcfsOnMeanWait) {
  auto fcfs_config = job_config(SchedPolicy::kFcfs, 21);
  DpsManager fcfs_manager;
  const auto fcfs = run_jobs(fcfs_manager, fcfs_config, 10);

  auto bf_config = job_config(SchedPolicy::kEasyBackfill, 21);
  DpsManager bf_manager;
  const auto backfill = run_jobs(bf_manager, bf_config, 10);

  EXPECT_EQ(fcfs.sched.completed, backfill.sched.completed);
  EXPECT_LE(backfill.sched.mean_bounded_slowdown,
            fcfs.sched.mean_bounded_slowdown);
}

}  // namespace
