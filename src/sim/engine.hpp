#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "faults/fault_plan.hpp"
#include "managers/manager.hpp"
#include "obs/sink.hpp"
#include "power/rapl_sim.hpp"
#include "sched/runtime.hpp"
#include "sim/cluster.hpp"
#include "sim/trace.hpp"
#include "thermal/thermal_model.hpp"

namespace dps {

/// A scheduled runtime change of the cluster-wide budget (operator action
/// or facility power emergency).
struct BudgetChange {
  Seconds at;
  Watts total_budget;
};

/// Parameters of one simulated experiment run.
struct EngineConfig {
  /// Decision-loop period (the paper's one-second loop).
  Seconds dt = 1.0;
  /// Cluster-wide power budget. The paper enforces 66.7 % of TDP, i.e.
  /// 110 W per 165 W socket.
  Watts total_budget = 2200.0;
  /// Stop once every group has completed at least this many runs.
  int target_completions = 3;
  /// Hard stop even if target completions are not reached.
  Seconds max_time = 200000.0;
  /// Record per-step telemetry (costs memory; off for big sweeps).
  bool record_trace = false;
  /// Runtime budget changes, sorted by time; each is delivered to the
  /// manager via PowerManager::update_budget when simulated time reaches
  /// it.
  std::vector<BudgetChange> budget_schedule{};
  /// Optional deterministic fault schedule (src/faults/). When set, the
  /// engine drives a FaultInjector over simulated time, routes the
  /// manager's telemetry through a FaultyPowerInterface, applies crashes
  /// to the cluster, folds budget sags into the in-effect budget, and
  /// fills the resilience fields of EngineResult.
  std::shared_ptr<const FaultPlan> fault_plan{};
  /// Observability sink (src/obs/). The engine pins the sink's clock to
  /// simulated time every step (deterministic event stamps), attaches it
  /// to the manager, the RAPL, and the fault machinery, and emits
  /// decision / cap-write / budget-change events through it, and times the
  /// step's phases (obs/phase.hpp). Default-constructed = disabled = free.
  obs::ObsSink obs;
  /// Optional open job-stream mode (src/sched/). When set, the cluster
  /// must be a job-mode Cluster: instead of static group assignment the
  /// engine drains arrivals each tick, asks the configured scheduler for
  /// placements under the in-effect budget, and runs until the stream is
  /// drained (target_completions is ignored; max_time still bounds the
  /// run). Node-crash faults evict and requeue the jobs on the crashed
  /// unit, up to the config's retry cap.
  std::optional<sched::JobScheduleConfig> job_schedule{};
  /// Optional thermal coupling (src/thermal/). When set, the engine steps
  /// a per-unit RC thermal model on each tick's true power and runs a
  /// ThrottleGovernor between the manager's decision and the cap write:
  /// units over the trip temperature get force-capped until they cool
  /// through the clear point. The manager keeps seeing its own requested
  /// caps — the governor is invisible to it except through the power
  /// telemetry it already reads. Unset = no thermal state at all; runs are
  /// bit-identical to a build without this subsystem.
  std::optional<ThermalConfig> thermal;
};

/// Outcome of one simulated experiment run.
struct EngineResult {
  /// Completed runs per group, in group order.
  std::vector<std::vector<Completion>> completions;
  /// Mean per-socket true power of each group over its active time.
  std::vector<Watts> group_mean_power;
  Seconds elapsed = 0.0;
  int steps = 0;
  /// Greatest sum of caps the manager ever requested; tests assert it never
  /// exceeds the budget.
  Watts peak_cap_sum = 0.0;
  /// Largest amount by which the requested cap sum exceeded the budget *in
  /// effect at that step* — nonzero only transiently right after a budget
  /// cut (the manager sheds on its next decision).
  Watts max_budget_overshoot = 0.0;
  /// Steps on which the cap sum exceeded the in-effect budget.
  int overshoot_steps = 0;

  // --- Resilience (meaningful only when EngineConfig::fault_plan is set) ---
  /// Fault events whose activation time fell inside the run.
  int faults_injected = 0;
  /// Simulated seconds during which at least one fault was active.
  Seconds faulted_time = 0.0;
  /// Watt-seconds (joules) of requested-cap-sum overshoot above the
  /// in-effect budget accumulated while at least one fault was active —
  /// the safety bill the faults actually caused.
  Joules faulted_overshoot_ws = 0.0;
  /// Per cleared fault, seconds from the clear until the manager's
  /// allocation was healthy again (see faults/resilience.hpp).
  std::vector<Seconds> fault_recovery_times;
  /// set_cap requests swallowed by stuck-actuator / crash faults.
  std::uint64_t dropped_cap_writes = 0;

  // --- Thermal (meaningful only when EngineConfig::thermal is set) ---
  /// Times the governor engaged (trip events across all units).
  int thermal_throttle_events = 0;
  /// Watt-seconds of requested cap the governor shed — the gap between
  /// what the manager asked for and what the hardware enforced.
  Joules thermal_shed_ws = 0.0;
  /// Per-unit seconds the *true* temperature spent at/above the trip
  /// point (a stuck sensor can hide an overheat from the governor; this
  /// ledger still sees it).
  std::vector<Seconds> thermal_time_over_trip;
  /// Hottest true temperature any unit reached during the run.
  Celsius peak_temperature_c = 0.0;

  /// True when max_time fired before the run's goal was reached (the
  /// target completions, or in job mode the end of the job stream).
  bool timed_out = false;

  // --- Job scheduling (meaningful only when EngineConfig::job_schedule) ---
  /// Scheduler KPI rollup: waits, bounded slowdown, utilization, power
  /// throttle stalls.
  sched::SchedStats sched;
  /// Per-job lifecycle records in completion order.
  std::vector<sched::JobOutcome> job_outcomes;

  /// Present only when EngineConfig::record_trace was set.
  std::shared_ptr<Trace> trace;
};

/// Drives the closed loop of Figure 3: each step the manager reads noisy
/// power through the simulated RAPL, decides new caps, the caps are applied
/// (with any actuation delay), and the cluster advances one period under
/// the enforced caps.
class SimulationEngine {
 public:
  explicit SimulationEngine(const EngineConfig& config = {});

  EngineResult run(Cluster& cluster, SimulatedRapl& rapl,
                   PowerManager& manager) const;

  const EngineConfig& config() const { return config_; }

 private:
  EngineConfig config_;
};

/// One block of a physics step, in the order the engine and SimNode share:
/// the caps in force, the cluster's physics, the RAPL record and actuation
/// advance, then, unless `measured` is empty, the noisy read of the
/// block's units (after SimulatedRapl::draw_block_noise). The caller ends
/// the step with Cluster::end_step. The phases are timed through `obs`.
void step_physics_block(Cluster& cluster, SimulatedRapl& rapl,
                        const Cluster::StepBlock& block, Seconds dt,
                        std::span<Watts> effective, std::span<Watts> power,
                        std::span<Watts> measured, const obs::ObsSink& obs = {});

/// Convenience: builds the paper's standard two-cluster system (10 sockets
/// per cluster) and runs `manager` on it until both groups complete
/// `target_completions` runs.
EngineResult run_pair(const WorkloadSpec& a, const WorkloadSpec& b,
                      PowerManager& manager, const EngineConfig& config,
                      std::uint64_t seed = 42,
                      const PerfModel& model = PerfModel());

/// Convenience: builds a job-mode cluster of `total_units` units and runs
/// `manager` under `config.job_schedule` (which must be set) until the job
/// stream drains or max_time fires. RAPL noise is seeded from the job
/// schedule's seed, so a fixed config is fully deterministic.
EngineResult run_jobs(PowerManager& manager, const EngineConfig& config,
                      int total_units = 20,
                      const PerfModel& model = PerfModel());

}  // namespace dps
