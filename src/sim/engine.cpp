#include "sim/engine.hpp"

#include "core/dps_manager.hpp"
#include "faults/fault_injector.hpp"
#include "faults/faulty_power.hpp"
#include "faults/resilience.hpp"
#include "thermal/governor.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>

namespace dps {
namespace {

/// Units per block of a sharded engine step. A block is about 0.25 ms of
/// physics and telemetry at this size, so waking a worker for it costs
/// little against the block, while a 100k-unit fleet still splits into
/// about 25 blocks that balance over a few CPUs.
constexpr int kStepBlockUnits = 4096;

}  // namespace

SimulationEngine::SimulationEngine(const EngineConfig& config)
    : config_(config) {
  if (config_.dt <= 0.0 || config_.total_budget <= 0.0 ||
      config_.target_completions < 0) {
    throw std::invalid_argument("EngineConfig: invalid parameters");
  }
}

EngineResult SimulationEngine::run(Cluster& cluster, SimulatedRapl& rapl,
                                   PowerManager& manager) const {
  const int n = cluster.total_units();
  if (rapl.num_units() != n) {
    throw std::invalid_argument("engine: RAPL/cluster unit count mismatch");
  }

  ManagerContext ctx;
  ctx.num_units = n;
  ctx.total_budget = config_.total_budget;
  ctx.tdp = rapl.tdp();
  ctx.min_cap = rapl.min_cap();
  ctx.dt = config_.dt;
  manager.reset(ctx);

  // All managers start from the constant allocation, as on a freshly
  // configured system.
  std::vector<Watts> caps(static_cast<std::size_t>(n), ctx.constant_cap());
  for (int u = 0; u < n; ++u) rapl.set_cap(u, caps[u]);

  std::vector<Watts> measured(static_cast<std::size_t>(n), 0.0);
  std::vector<Watts> true_power(static_cast<std::size_t>(n), 0.0);
  std::vector<Watts> demands(static_cast<std::size_t>(n), 0.0);
  std::vector<Watts> effective(static_cast<std::size_t>(n), 0.0);

  EngineResult result;
  if (config_.record_trace) {
    result.trace = std::make_shared<TraceRecorder>(n);
  }
  // The manager's concrete type is fixed for the whole run; resolving the
  // DPS priority view once here keeps the dynamic_cast out of the
  // decision loop (it only feeds the optional trace).
  const auto* dps_view = dynamic_cast<const DpsManager*>(&manager);

  // Job-stream mode: the scheduling runtime owns arrivals, the queue, and
  // placements; the cluster must have been built in job mode so it exposes
  // the JobHost surface instead of static groups.
  std::unique_ptr<sched::SchedRuntime> sched_rt;
  if (config_.job_schedule.has_value()) {
    if (!cluster.job_mode()) {
      throw std::invalid_argument(
          "engine: job_schedule requires a job-mode Cluster");
    }
    sched_rt = std::make_unique<sched::SchedRuntime>(*config_.job_schedule, n,
                                                     config_.obs);
  } else if (cluster.job_mode()) {
    throw std::invalid_argument(
        "engine: job-mode Cluster requires EngineConfig::job_schedule");
  }

  // Fault machinery: absent a plan, the manager talks to the RAPL
  // directly and none of this costs anything.
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<FaultyPowerInterface> faulty;
  RecoveryTracker recovery;
  if (config_.fault_plan && !config_.fault_plan->empty()) {
    injector = std::make_unique<FaultInjector>(*config_.fault_plan, n);
    faulty = std::make_unique<FaultyPowerInterface>(rapl, *injector);
  }
  PowerInterface& telemetry =
      faulty ? static_cast<PowerInterface&>(*faulty) : rapl;

  // Thermal coupling: absent the config none of this exists and the loop
  // below is bit-identical to a build without the subsystem.
  std::unique_ptr<ThermalModel> thermal;
  std::unique_ptr<ThrottleGovernor> governor;
  std::vector<Watts> applied;
  if (config_.thermal.has_value()) {
    thermal = std::make_unique<ThermalModel>(*config_.thermal, n);
    governor = std::make_unique<ThrottleGovernor>(*config_.thermal, n);
    applied.resize(static_cast<std::size_t>(n));
  }

  // Observability: pin the sink's clock to simulated time and hand the
  // same sink to every layer, so the run produces one coherent stream.
  const obs::ObsSink& obs = config_.obs;
  obs.set_time(cluster.now());
  manager.set_obs(obs);
  rapl.set_obs(obs);
  if (injector) {
    injector->set_obs(obs);
    faulty->set_obs(obs);
  }
  if (governor) governor->set_obs(obs);
  obs::Gauge* obs_max_temp =
      thermal ? obs.gauge("thermal_max_temperature_c",
                          "Hottest unit's true temperature this step")
              : nullptr;
  obs::Counter* obs_steps = obs.counter(
      "engine_steps_total", "Decision-loop steps the engine executed");
  obs::Counter* obs_cap_writes = obs.counter(
      "engine_cap_writes_total", "Per-unit cap changes the engine applied");
  obs::Histogram* obs_decide_seconds = obs.latency_histogram(
      "engine_decide_seconds", "Wall time of one manager decision");
  obs::Gauge* obs_budget = obs.gauge(
      "engine_budget_watts", "Cluster budget currently in effect");

  // Physics blocks. With no fault, schedule, thermal or trace hook between
  // its phases, a step's per-unit work (effective caps, cluster physics,
  // RAPL record and read) runs as blocks of whole groups that this thread
  // and a run-scoped pool claim; the read's noise is drawn serially first,
  // one deviate per unit in unit order, since every unit is recorded with
  // dt > 0 before it is read. A run of one block, or with a hook, steps
  // its one block on this thread and reads through the telemetry seam
  // after the hooks.
  const bool hooked = injector || sched_rt || thermal || result.trace;
  const std::vector<Cluster::StepBlock> blocks =
      cluster.step_blocks(hooked ? n : kStepBlockUnits);
  const bool sharded = blocks.size() > 1;
  const std::size_t workers =
      sharded ? std::min<std::size_t>(available_threads(), blocks.size())
              : 1;
  std::unique_ptr<ThreadPool> pool;
  if (workers > 1) {
    pool = std::make_unique<ThreadPool>(static_cast<int>(workers) - 1);
  }
  if (obs::Gauge* g = obs.gauge("engine_physics_blocks",
                                "Blocks of units one engine step splits into")) {
    g->set(static_cast<double>(blocks.size()));
  }
  if (obs::Gauge* g = obs.gauge(
          "engine_physics_workers",
          "Threads stepping the physics blocks, the engine's own included")) {
    g->set(static_cast<double>(workers));
  }
  const auto step_block = [&](std::size_t b) {
    const auto first = static_cast<std::size_t>(blocks[b].first_unit);
    const auto last = static_cast<std::size_t>(blocks[b].last_unit);
    rapl.effective_caps_block(first, last, effective);
    cluster.step_block(blocks[b], config_.dt, effective, true_power);
    rapl.record_block(first, last, true_power, config_.dt);
    rapl.advance_block(first, last);
    if (sharded) rapl.read_power_block(first, last, measured);
  };
  // Previous step's caps, for emitting kCapWrite only when a cap moved.
  std::vector<Watts> obs_prev_caps;
  if (obs.enabled()) obs_prev_caps = caps;

  Watts current_budget = config_.total_budget;
  // Budget actually in effect: the scheduled budget scaled by any active
  // budget-sag fault. The manager is told on every change.
  Watts effective_budget = current_budget;
  std::size_t next_change = 0;
  if (obs_budget != nullptr) obs_budget->set(effective_budget);

  const auto work_remaining = [&] {
    return sched_rt ? !sched_rt->finished()
                    : cluster.min_completions() < config_.target_completions;
  };

  int steps = 0;
  while (work_remaining() && cluster.now() < config_.max_time) {
    obs.set_time(cluster.now());
    // Deliver any scheduled budget changes that have come due.
    while (next_change < config_.budget_schedule.size() &&
           cluster.now() >= config_.budget_schedule[next_change].at) {
      current_budget = config_.budget_schedule[next_change].total_budget;
      ++next_change;
    }
    // Deliver fault activations/clears that have come due.
    if (injector) {
      injector->advance(cluster.now());
      for (const auto& e : injector->just_cleared()) {
        recovery.on_cleared(e, cluster.now());
      }
      for (int u = 0; u < n; ++u) cluster.set_crashed(u, injector->crashed(u));
    }
    const Watts new_effective =
        current_budget * (injector ? injector->budget_factor() : 1.0);
    if (new_effective != effective_budget) {
      obs.event(obs::EventKind::kBudgetChange, -1, new_effective,
                effective_budget);
      if (obs_budget != nullptr) obs_budget->set(new_effective);
      effective_budget = new_effective;
      manager.update_budget(effective_budget);
    }

    // Scheduling round: requeue crash victims, drain due arrivals, and
    // start whatever the policy places under the in-effect budget.
    if (sched_rt) {
      sched_rt->begin_tick(cluster, cluster.now(), effective_budget, caps);
    }

    // Route active thermal faults into the model before the physics step.
    if (thermal && injector) {
      for (int u = 0; u < n; ++u) {
        thermal->set_resistance_multiplier(u, injector->fan_degrade_factor(u));
        thermal->set_sensor_stuck(u, injector->temp_sensor_stuck(u));
      }
    }

    // True demands are only consumed by the optional trace artifact; the
    // scan (a per-unit segment lookup) stays off the hot path otherwise.
    if (result.trace) cluster.true_demands(demands);
    // Advance the system one period under the currently enforced caps.
    if (sharded) rapl.draw_block_noise();
    run_blocks(pool.get(), Caller::kClaims, blocks.size(), 1, step_block);
    cluster.end_step(config_.dt);
    if (sched_rt) sched_rt->end_tick(cluster, cluster.now(), config_.dt);
    if (thermal) {
      // The model's own pass reports the hottest true temperature, so the
      // engine does not re-scan every unit.
      const Celsius hottest = thermal->step(config_.dt, true_power);
      result.peak_temperature_c = std::max(result.peak_temperature_c, hottest);
      if (obs_max_temp != nullptr) obs_max_temp->set(hottest);
    }

    // Controller turn: read (possibly faulted) power, decide, actuate.
    if (!sharded) telemetry.read_power_batch(measured);
    {
      obs::ScopedSpan span(obs, obs_decide_seconds, "decide");
      manager.decide(measured, caps);
    }
    if (obs_steps != nullptr) obs_steps->add();
    Watts cap_sum = 0.0;
    for (int u = 0; u < n; ++u) cap_sum += caps[u];
    // The decision event precedes this step's cap writes in the stream —
    // the decision is what causes them.
    obs.event(obs::EventKind::kDecision, -1, cap_sum, effective_budget);
    // The governor rewrites the requested caps into the caps actually
    // written. `caps` keeps the manager's values — on the next decide it
    // sees exactly what it asked for, never what the hardware enforced.
    if (governor) {
      governor->apply(*thermal, cluster.now(), config_.dt, caps, applied);
    }
    const std::vector<Watts>& written = governor ? applied : caps;
    telemetry.set_cap_batch(written);
    if (obs.enabled()) {
      for (int u = 0; u < n; ++u) {
        const auto su = static_cast<std::size_t>(u);
        if (written[su] != obs_prev_caps[su]) {
          obs.event(obs::EventKind::kCapWrite, u, written[su]);
          obs_cap_writes->add();
          obs_prev_caps[su] = written[su];
        }
      }
    }
    result.peak_cap_sum = std::max(result.peak_cap_sum, cap_sum);
    if (cap_sum > effective_budget + 1e-6) {
      result.max_budget_overshoot =
          std::max(result.max_budget_overshoot, cap_sum - effective_budget);
      ++result.overshoot_steps;
    }
    if (injector) {
      if (injector->any_active()) {
        result.faulted_time += config_.dt;
        result.faulted_overshoot_ws +=
            std::max(0.0, cap_sum - effective_budget) * config_.dt;
      }
      recovery.step(cluster.now(), caps, effective_budget,
                    effective_budget / n);
    }

    if (result.trace) {
      // The artifact logs each unit's DPS priority at every decision.
      for (int u = 0; u < n; ++u) {
        const int priority =
            dps_view ? (dps_view->priorities().high_priority(u) ? 1 : 0) : -1;
        result.trace->record(
            u, TraceSample{cluster.now(), true_power[u], measured[u], caps[u],
                           demands[u], priority});
      }
    }
    ++steps;
  }

  if (injector) {
    result.faults_injected = injector->activated_count();
    result.fault_recovery_times = recovery.recovery_times();
    result.dropped_cap_writes = faulty->dropped_cap_writes();
  }
  if (governor) {
    result.thermal_throttle_events = governor->trip_events();
    result.thermal_shed_ws = governor->shed_ws();
    result.thermal_time_over_trip = governor->time_over_trip();
  }
  result.steps = steps;
  result.elapsed = cluster.now();
  result.timed_out = work_remaining();
  result.completions.reserve(static_cast<std::size_t>(cluster.num_groups()));
  for (int g = 0; g < cluster.num_groups(); ++g) {
    result.completions.push_back(cluster.completions(g));
    result.group_mean_power.push_back(cluster.group_mean_power(g));
  }
  if (sched_rt) {
    result.job_outcomes = sched_rt->outcomes();
    result.sched = sched_rt->stats(cluster.now(), n);
  }
  return result;
}

EngineResult run_pair(const WorkloadSpec& a, const WorkloadSpec& b,
                      PowerManager& manager, const EngineConfig& config,
                      std::uint64_t seed, const PerfModel& model) {
  std::vector<GroupSpec> groups;
  groups.push_back(GroupSpec{a, 10, seed});
  groups.push_back(GroupSpec{b, 10, seed ^ 0xabcdef1234ULL});
  Cluster cluster(std::move(groups), model);

  RaplSimConfig rapl_config;
  rapl_config.noise_seed = seed * 977 + 13;
  SimulatedRapl rapl(cluster.total_units(), rapl_config);

  SimulationEngine engine(config);
  return engine.run(cluster, rapl, manager);
}

EngineResult run_jobs(PowerManager& manager, const EngineConfig& config,
                      int total_units, const PerfModel& model) {
  if (!config.job_schedule.has_value()) {
    throw std::invalid_argument("run_jobs: config.job_schedule must be set");
  }
  Cluster cluster(total_units, model);

  RaplSimConfig rapl_config;
  rapl_config.noise_seed = config.job_schedule->seed * 977 + 13;
  SimulatedRapl rapl(cluster.total_units(), rapl_config);

  SimulationEngine engine(config);
  return engine.run(cluster, rapl, manager);
}

}  // namespace dps
