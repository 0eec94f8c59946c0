#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "power/power_interface.hpp"
#include "workloads/spec.hpp"

namespace dps::sched {

/// One record of the arrival stream: at `time` a user submits `workload`
/// asking for `n_units` power-capping units and estimating `walltime`
/// seconds of runtime (the estimate backfill reservations are built on;
/// <= 0 means "fill in a default from the workload's nominal duration at
/// submit time").
struct JobArrival {
  Seconds time = 0.0;
  std::string workload;
  int n_units = 1;
  Seconds walltime = 0.0;

  bool operator==(const JobArrival&) const = default;
};

/// The queueing policies the scheduler implements (docs/scheduling.md).
enum class SchedPolicy {
  /// Strict first-come-first-served: the queue head blocks everything
  /// behind it until enough units free up.
  kFcfs,
  /// EASY backfill: the head gets a unit-count reservation at the earliest
  /// time running jobs' walltime estimates free enough units; later jobs
  /// may jump ahead only if they cannot delay that reservation.
  kEasyBackfill,
  /// EASY backfill plus a power-admission gate: jobs whose projected
  /// demand would not fit under the cluster budget are shrunk (granted
  /// fewer units) or delayed, and each delay is counted as a throttle
  /// stall.
  kPowerAware,
};

const char* to_string(SchedPolicy policy);
/// Inverse of to_string, also accepting the short spellings used on the
/// command line ("fcfs", "backfill", "power"). False on unknown names.
bool sched_policy_from_string(const std::string& name, SchedPolicy& out);

/// A job travelling through the subsystem: queued, running, then done.
struct Job {
  int id = -1;
  JobArrival arrival;
  /// Resolved demand model (from the workload registry) the placement
  /// layer instantiates on every granted unit.
  WorkloadSpec spec;
  /// Original submission time; requeues keep it, so wait-time KPIs charge
  /// crash retries to the job's whole stay in the system.
  Seconds submit_time = 0.0;
  /// Walltime estimate actually used for reservations (arrival.walltime,
  /// or the default derived from the spec).
  Seconds walltime = 0.0;
  /// Crash-requeues suffered so far.
  int retries = 0;
};

/// A finished job's lifecycle timestamps, the raw material of the KPIs.
struct JobOutcome {
  int id = -1;
  Seconds submit = 0.0;
  /// Final (post-requeue) start.
  Seconds start = 0.0;
  Seconds end = 0.0;
  int granted_units = 0;
  int retries = 0;
};

/// Scheduler KPIs reported in EngineResult::sched (definitions in
/// docs/scheduling.md).
struct SchedStats {
  int submitted = 0;
  int started = 0;
  int completed = 0;
  /// Crash-requeues performed (a job can contribute several).
  int requeued = 0;
  /// Jobs dropped after exceeding the requeue retry cap.
  int abandoned = 0;
  /// Placements the power-aware policy delayed because their projected
  /// demand did not fit under the budget (counted once per stalled step).
  int throttle_stalls = 0;
  /// Jobs started with fewer units than requested (power-aware shrink).
  int shrunk = 0;
  Seconds mean_wait = 0.0;
  Seconds max_wait = 0.0;
  /// Mean of max(1, (end-submit) / max(end-start, bound)).
  double mean_bounded_slowdown = 0.0;
  /// Busy-unit share of total unit-time over the run.
  double mean_utilization = 0.0;
  int max_queue_depth = 0;
};

/// Resolves a workload name from an arrival record to its demand model.
/// The engine cannot depend on the experiments registry (layering), so
/// callers pass `workload_by_name` or their own table. Must throw
/// std::invalid_argument on unknown names.
using WorkloadResolver = std::function<WorkloadSpec(const std::string&)>;

/// What runs jobs on concrete units, and the one record of which unit runs
/// which job. Jobs are named by the scheduling runtime's own ids.
/// Implemented by the simulator's Cluster (job mode); keeping it abstract
/// lets dps_sched sit below dps_sim in the library stack.
class JobHost {
 public:
  virtual ~JobHost() = default;

  /// Starts job `job` running `spec` on the given idle units; `seed` keys
  /// the per-unit jitter realizations. The host keeps the spec, so callers
  /// move theirs in.
  virtual void start_job(int job, WorkloadSpec spec,
                         std::span<const int> units, std::uint64_t seed) = 0;

  /// Kills running job `job` (crash requeue); its units go idle. Does
  /// nothing when `job` is not running.
  virtual void abort_job(int job) = 0;

  /// Jobs whose units all finished since the previous drain, in start
  /// order.
  virtual std::vector<int> drain_finished_jobs() = 0;

  /// Whether the unit is bound to a running job.
  virtual bool unit_busy(int unit) const = 0;
  /// Whether the unit is currently crashed (fault-injected).
  virtual bool unit_crashed(int unit) const = 0;
};

}  // namespace dps::sched
