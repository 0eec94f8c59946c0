#include "sched/runtime.hpp"

#include <algorithm>
#include <stdexcept>

#include "sched/sched_config.hpp"
#include "util/rng.hpp"
#include "workloads/instance.hpp"

namespace dps::sched {
namespace {

/// Queue-wait histogram buckets [s]: waits run from seconds to hours.
std::vector<double> wait_bounds() {
  return {1.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0};
}

/// A shrunk grant conserves total work: per-unit durations stretch by the
/// shrink ratio (the workload's power profile is unchanged, it just runs
/// longer on fewer sockets).
WorkloadSpec shrink_spec(const WorkloadSpec& spec, int requested,
                         int granted) {
  WorkloadSpec scaled = spec;
  const double ratio =
      static_cast<double>(requested) / static_cast<double>(granted);
  for (auto& seg : scaled.segments) seg.duration *= ratio;
  return scaled;
}

}  // namespace

SchedRuntime::SchedRuntime(const JobScheduleConfig& config, int total_units,
                           const obs::ObsSink& obs)
    : resolve_(config.resolve),
      seed_(config.seed),
      retry_cap_(config.retry_cap),
      slowdown_bound_(config.slowdown_bound),
      walltime_factor_(config.walltime_factor),
      scheduler_(make_scheduler(config.policy, config.power)),
      placement_(total_units),
      obs_(obs) {
  if (!resolve_) {
    throw std::invalid_argument(
        "JobScheduleConfig: a workload resolver is required");
  }
  check_section(sched_section(), config);
  if (!config.trace.empty()) {
    arrivals_ = ArrivalStream::from_records(config.trace);
  } else {
    PoissonArrivalConfig poisson;
    poisson.seed = config.seed;
    poisson.rate_per_1000s = config.arrival_rate_per_1000s;
    poisson.count = config.job_count;
    poisson.workloads = config.workload_mix;
    poisson.min_units = config.min_units;
    poisson.max_units = std::min(config.max_units, total_units);
    poisson.min_units = std::min(poisson.min_units, poisson.max_units);
    arrivals_ = ArrivalStream::poisson(poisson);
  }
  obs_submitted_ = obs_.counter("sched_jobs_submitted_total",
                                "Jobs that entered the queue");
  obs_started_ = obs_.counter("sched_jobs_started_total",
                              "Jobs placed on units");
  obs_completed_ = obs_.counter("sched_jobs_completed_total",
                                "Jobs that ran to completion");
  obs_requeued_ = obs_.counter("sched_jobs_requeued_total",
                               "Crash-requeues performed");
  obs_stalls_ = obs_.counter("sched_throttle_stalls_total",
                             "Placements delayed by the power gate");
  obs_queue_depth_ = obs_.gauge("sched_queue_depth", "Jobs waiting to run");
  obs_wait_ = obs_.histogram("sched_wait_seconds", wait_bounds(),
                             "Queue wait of completed jobs");
}

void SchedRuntime::submit_due_arrivals(Seconds now) {
  while (arrivals_.has_due(now)) {
    const JobArrival record = arrivals_.take();
    Job job;
    job.id = next_job_id_++;
    job.arrival = record;
    job.spec = resolve_(record.workload);
    // Jobs wider than the machine are clamped to it (a real scheduler
    // would reject them; clamping keeps trace replays runnable on any
    // cluster size).
    job.arrival.n_units =
        std::min(job.arrival.n_units, placement_.total_units());
    job.submit_time = record.time;
    job.walltime = record.walltime > 0.0
                       ? record.walltime
                       : job.spec.nominal_duration() * walltime_factor_;
    obs_.event(obs::EventKind::kJobSubmit, -1, job.id,
               job.arrival.n_units);
    if (obs_submitted_ != nullptr) obs_submitted_->add();
    ++submitted_;
    queue_.submit(std::move(job));
  }
  max_queue_depth_ = std::max(max_queue_depth_,
                              static_cast<int>(queue_.size()));
  if (obs_queue_depth_ != nullptr) {
    obs_queue_depth_->set(static_cast<double>(queue_.size()));
  }
}

void SchedRuntime::requeue_crashed(JobHost& host, Seconds now) {
  // Sync per-unit crash state first so allocations skip dark units.
  for (int u = 0; u < placement_.total_units(); ++u) {
    placement_.set_crashed(u, host.unit_crashed(u));
  }
  std::vector<int> victims;
  for (const auto& [id, entry] : running_) {
    for (const int u : placement_.units_of(id)) {
      if (placement_.crashed(u)) {
        victims.push_back(id);
        break;
      }
    }
  }
  for (const int id : victims) {
    RunningEntry entry = std::move(running_.at(id));
    running_.erase(id);
    slot_to_job_.erase(entry.slot);
    host.abort_job(entry.slot);
    const std::vector<int> units = placement_.release(id);
    int crashed_unit = units.empty() ? -1 : units.front();
    for (const int u : units) {
      if (placement_.crashed(u)) {
        crashed_unit = u;
        break;
      }
    }
    Job job = std::move(entry.job);
    ++job.retries;
    ++requeued_;
    if (obs_requeued_ != nullptr) obs_requeued_->add();
    obs_.event(obs::EventKind::kJobRequeue, crashed_unit, job.id,
               job.retries);
    if (job.retries > retry_cap_) {
      ++abandoned_;
      continue;  // dropped: the KPI ledger remembers it
    }
    queue_.requeue(std::move(job));
  }
  (void)now;
}

void SchedRuntime::start_job(JobHost& host, Job job, int granted,
                             Seconds now) {
  const int requested = job.arrival.n_units;
  const WorkloadSpec spec_run = granted < requested
                                    ? shrink_spec(job.spec, requested, granted)
                                    : job.spec;
  if (granted < requested) ++shrunk_;
  const std::vector<int> units = placement_.bind(job.id, granted);
  // Per-(run seed, job, attempt) jitter stream: a requeued job restarts
  // from scratch with a fresh realization.
  const int slot = host.start_job(
      spec_run, units,
      mix_seed(seed_, static_cast<std::uint64_t>(job.id),
               static_cast<std::uint64_t>(job.retries)));
  obs_.event(obs::EventKind::kJobStart, units.front(), job.id, granted);
  if (obs_started_ != nullptr) obs_started_->add();
  ++started_;
  RunningEntry entry;
  entry.start = now;
  entry.granted = granted;
  entry.expected_end =
      now + job.walltime * static_cast<double>(requested) / granted;
  entry.projected_demand = job.spec.mean_demand() * granted;
  entry.slot = slot;
  const int id = job.id;
  entry.job = std::move(job);
  slot_to_job_[slot] = id;
  running_.emplace(id, std::move(entry));
}

void SchedRuntime::begin_tick(JobHost& host, Seconds now, Watts budget,
                              std::span<const Watts> caps) {
  requeue_crashed(host, now);
  submit_due_arrivals(now);
  if (queue_.empty()) return;

  SchedView view;
  view.now = now;
  view.total_units = placement_.total_units();
  view.free_units = placement_.free_count();
  view.budget = budget;
  for (const Watts cap : caps) view.cap_sum += cap;
  view.idle_power = kIdlePower;
  view.running.reserve(running_.size());
  for (const auto& [id, entry] : running_) {
    // Overdue estimates clamp to "just after now": the job is still
    // holding its units, so reservations cannot assume they are free.
    view.running.push_back(RunningJob{
        std::max(entry.expected_end, now + 1.0), entry.granted});
    view.running_demand += entry.projected_demand;
  }

  ScheduleOutcome outcome = scheduler_->schedule(queue_, view);
  throttle_stalls_ += outcome.power_stalls;
  if (obs_stalls_ != nullptr && outcome.power_stalls > 0) {
    obs_stalls_->add(static_cast<std::uint64_t>(outcome.power_stalls));
  }
  if (outcome.placements.empty()) return;

  // Decisions index the pre-removal queue: copy the jobs out first, then
  // remove in descending index order, then start in decision order.
  std::vector<std::pair<Job, int>> to_start;
  to_start.reserve(outcome.placements.size());
  for (const auto& d : outcome.placements) {
    to_start.emplace_back(queue_.at(d.queue_index), d.granted_units);
  }
  std::vector<std::size_t> indices;
  indices.reserve(outcome.placements.size());
  for (const auto& d : outcome.placements) indices.push_back(d.queue_index);
  std::sort(indices.rbegin(), indices.rend());
  for (const std::size_t i : indices) queue_.take(i);

  for (auto& [job, granted] : to_start) {
    start_job(host, std::move(job), granted, now);
  }
  if (obs_queue_depth_ != nullptr) {
    obs_queue_depth_->set(static_cast<double>(queue_.size()));
  }
}

void SchedRuntime::end_tick(JobHost& host, Seconds now, Seconds dt) {
  // Jobs finishing this step were busy through it; charge before retiring.
  busy_unit_seconds_ += static_cast<double>(placement_.busy_count()) * dt;
  for (const int slot : host.drain_finished_jobs()) {
    const auto it = slot_to_job_.find(slot);
    if (it == slot_to_job_.end()) continue;  // aborted earlier this tick
    const int id = it->second;
    slot_to_job_.erase(it);
    RunningEntry entry = std::move(running_.at(id));
    running_.erase(id);
    placement_.release(id);
    JobOutcome outcome;
    outcome.id = id;
    outcome.submit = entry.job.submit_time;
    outcome.start = entry.start;
    outcome.end = now;
    outcome.granted_units = entry.granted;
    outcome.retries = entry.job.retries;
    obs_.event(obs::EventKind::kJobEnd, -1, id,
               outcome.start - outcome.submit);
    if (obs_completed_ != nullptr) obs_completed_->add();
    if (obs_wait_ != nullptr) {
      obs_wait_->observe(outcome.start - outcome.submit);
    }
    outcomes_.push_back(outcome);
  }
  if (obs_queue_depth_ != nullptr) {
    obs_queue_depth_->set(static_cast<double>(queue_.size()));
  }
}

SchedStats SchedRuntime::stats(Seconds elapsed, int total_units) const {
  SchedStats stats;
  stats.submitted = submitted_;
  stats.started = started_;
  stats.completed = static_cast<int>(outcomes_.size());
  stats.requeued = requeued_;
  stats.abandoned = abandoned_;
  stats.throttle_stalls = throttle_stalls_;
  stats.shrunk = shrunk_;
  stats.max_queue_depth = max_queue_depth_;
  double wait_sum = 0.0, slowdown_sum = 0.0;
  for (const auto& o : outcomes_) {
    const Seconds wait = o.start - o.submit;
    wait_sum += wait;
    stats.max_wait = std::max(stats.max_wait, wait);
    const Seconds runtime = std::max(o.end - o.start, slowdown_bound_);
    slowdown_sum += std::max(1.0, (o.end - o.submit) / runtime);
  }
  if (!outcomes_.empty()) {
    const auto n = static_cast<double>(outcomes_.size());
    stats.mean_wait = wait_sum / n;
    stats.mean_bounded_slowdown = slowdown_sum / n;
  }
  if (elapsed > 0.0 && total_units > 0) {
    stats.mean_utilization =
        busy_unit_seconds_ / (elapsed * static_cast<double>(total_units));
  }
  return stats;
}

}  // namespace dps::sched
