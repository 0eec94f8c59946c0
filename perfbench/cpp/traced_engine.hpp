#pragma once

#include <cstdint>

#include "sim/engine.hpp"

namespace perfbench {

/// Counts the traced engine takes at the actuation boundary.
struct ActuationCounts {
  std::int64_t unit_writes = 0;  // per-unit caps handed to set_cap_batch
  std::int64_t changed = 0;      // ... that differ from the unit's previous cap
};

/// Benchmark-side copy of SimulationEngine::run's step loop with a span
/// around each call into a layer: Cluster::step, the RAPL record /
/// telemetry read / cap write, FaultInjector::advance (with the fault
/// routing into the cluster and thermal model), RecoveryTracker::step,
/// ThermalModel::step, ThrottleGovernor::apply and the scheduler's
/// begin_tick / end_tick. The manager's decide() is not wrapped here: the
/// traced managers carry their own spans. It must return exactly what
/// SimulationEngine::run returns for the same inputs; the traced run
/// checks that. Configs with an enabled observability sink or a recorded
/// trace are refused.
dps::EngineResult traced_run(const dps::EngineConfig& config, dps::Cluster& cluster,
                             dps::SimulatedRapl& rapl, dps::PowerManager& manager,
                             ActuationCounts& counts);

}  // namespace perfbench
