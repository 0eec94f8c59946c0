#include "traced_engine.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "faults/fault_injector.hpp"
#include "faults/faulty_power.hpp"
#include "faults/resilience.hpp"
#include "thermal/governor.hpp"
#include "tracer.hpp"

namespace perfbench {
namespace {

const SpanName kSimStep("sim.step");
const SpanName kPowerRecord("power.record");
const SpanName kPowerRead("power.read");
const SpanName kPowerSetCap("power.set_cap");
const SpanName kFaultsAdvance("faults.advance");
const SpanName kFaultsRecovery("faults.recovery");
const SpanName kThermalStep("thermal.step");
const SpanName kThermalGovernor("thermal.governor");
const SpanName kSchedTick("sched.tick");

}  // namespace

dps::EngineResult traced_run(const dps::EngineConfig& config, dps::Cluster& cluster,
                             dps::SimulatedRapl& rapl, dps::PowerManager& manager,
                             ActuationCounts& counts) {
  using dps::Watts;
  if (config.obs.enabled() || config.record_trace) {
    throw std::invalid_argument("traced_run: obs sinks and trace recording are not copied");
  }
  const dps::SimulationEngine validated(config);  // the same parameter checks
  const int n = cluster.total_units();
  if (rapl.num_units() != n) {
    throw std::invalid_argument("engine: RAPL/cluster unit count mismatch");
  }
  Tracer* tracer = Tracer::active();

  dps::ManagerContext ctx;
  ctx.num_units = n;
  ctx.total_budget = config.total_budget;
  ctx.tdp = rapl.tdp();
  ctx.min_cap = rapl.min_cap();
  ctx.dt = config.dt;
  manager.reset(ctx);

  std::vector<Watts> caps(static_cast<std::size_t>(n), ctx.constant_cap());
  for (int u = 0; u < n; ++u) rapl.set_cap(u, caps[u]);
  std::vector<Watts> measured(static_cast<std::size_t>(n), 0.0);
  std::vector<Watts> true_power(static_cast<std::size_t>(n), 0.0);
  std::vector<Watts> effective(static_cast<std::size_t>(n), 0.0);
  std::vector<Watts> last_written = caps;

  dps::EngineResult result;
  std::unique_ptr<dps::sched::SchedRuntime> sched_rt;
  if (config.job_schedule.has_value()) {
    if (!cluster.job_mode()) {
      throw std::invalid_argument("engine: job_schedule requires a job-mode Cluster");
    }
    sched_rt = std::make_unique<dps::sched::SchedRuntime>(*config.job_schedule, n, config.obs);
  } else if (cluster.job_mode()) {
    throw std::invalid_argument("engine: job-mode Cluster requires EngineConfig::job_schedule");
  }

  std::unique_ptr<dps::FaultInjector> injector;
  std::unique_ptr<dps::FaultyPowerInterface> faulty;
  dps::RecoveryTracker recovery;
  if (config.fault_plan && !config.fault_plan->empty()) {
    injector = std::make_unique<dps::FaultInjector>(*config.fault_plan, n);
    faulty = std::make_unique<dps::FaultyPowerInterface>(rapl, *injector);
  }
  dps::PowerInterface& telemetry =
      faulty ? static_cast<dps::PowerInterface&>(*faulty) : rapl;

  std::unique_ptr<dps::ThermalModel> thermal;
  std::unique_ptr<dps::ThrottleGovernor> governor;
  std::vector<Watts> applied;
  if (config.thermal.has_value()) {
    thermal = std::make_unique<dps::ThermalModel>(*config.thermal, n);
    governor = std::make_unique<dps::ThrottleGovernor>(*config.thermal, n);
    applied.resize(static_cast<std::size_t>(n));
  }
  manager.set_obs(config.obs);
  rapl.set_obs(config.obs);

  Watts current_budget = config.total_budget;
  Watts effective_budget = current_budget;
  std::size_t next_change = 0;
  const auto work_remaining = [&] {
    return sched_rt ? !sched_rt->finished()
                    : cluster.min_completions() < config.target_completions;
  };

  int steps = 0;
  while (work_remaining() && cluster.now() < config.max_time) {
    if (tracer != nullptr) tracer->set_step(steps);
    while (next_change < config.budget_schedule.size() &&
           cluster.now() >= config.budget_schedule[next_change].at) {
      current_budget = config.budget_schedule[next_change].total_budget;
      ++next_change;
    }
    if (injector) {
      ScopedSpan s(kFaultsAdvance);
      injector->advance(cluster.now());
      for (const auto& e : injector->just_cleared()) recovery.on_cleared(e, cluster.now());
      for (int u = 0; u < n; ++u) cluster.set_crashed(u, injector->crashed(u));
    }
    const Watts new_effective = current_budget * (injector ? injector->budget_factor() : 1.0);
    if (new_effective != effective_budget) {
      effective_budget = new_effective;
      manager.update_budget(effective_budget);
    }
    if (sched_rt) {
      ScopedSpan s(kSchedTick);
      sched_rt->begin_tick(cluster, cluster.now(), effective_budget, caps);
    }
    if (thermal && injector) {
      ScopedSpan s(kFaultsAdvance);
      for (int u = 0; u < n; ++u) {
        thermal->set_resistance_multiplier(u, injector->fan_degrade_factor(u));
        thermal->set_sensor_stuck(u, injector->temp_sensor_stuck(u));
      }
    }
    {
      ScopedSpan s(kPowerRecord);
      rapl.effective_caps_batch(effective);
    }
    {
      ScopedSpan s(kSimStep);
      cluster.step(config.dt, effective, true_power);
    }
    if (sched_rt) {
      ScopedSpan s(kSchedTick);
      sched_rt->end_tick(cluster, cluster.now(), config.dt);
    }
    {
      ScopedSpan s(kPowerRecord);
      rapl.record_batch(true_power, config.dt);
      rapl.advance_step();
    }
    if (thermal) {
      ScopedSpan s(kThermalStep);
      const dps::Celsius hottest = thermal->step(config.dt, true_power);
      result.peak_temperature_c = std::max(result.peak_temperature_c, hottest);
    }
    {
      ScopedSpan s(kPowerRead);
      telemetry.read_power_batch(measured);
    }
    manager.decide(measured, caps);
    Watts cap_sum = 0.0;
    for (int u = 0; u < n; ++u) cap_sum += caps[u];
    if (governor) {
      ScopedSpan s(kThermalGovernor);
      governor->apply(*thermal, cluster.now(), config.dt, caps, applied);
    }
    const std::vector<Watts>& written = governor ? applied : caps;
    {
      ScopedSpan s(kPowerSetCap);
      telemetry.set_cap_batch(written);
    }
    counts.unit_writes += n;
    for (int u = 0; u < n; ++u) {
      const auto su = static_cast<std::size_t>(u);
      if (written[su] != last_written[su]) {
        ++counts.changed;
        last_written[su] = written[su];
      }
    }
    result.peak_cap_sum = std::max(result.peak_cap_sum, cap_sum);
    if (cap_sum > effective_budget + 1e-6) {
      result.max_budget_overshoot =
          std::max(result.max_budget_overshoot, cap_sum - effective_budget);
      ++result.overshoot_steps;
    }
    if (injector) {
      ScopedSpan s(kFaultsRecovery);
      if (injector->any_active()) {
        result.faulted_time += config.dt;
        result.faulted_overshoot_ws += std::max(0.0, cap_sum - effective_budget) * config.dt;
      }
      recovery.step(cluster.now(), caps, effective_budget, effective_budget / n);
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

}  // namespace perfbench
