#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "power/rapl_sim.hpp"
#include "sim/cluster.hpp"
#include "workloads/spec.hpp"

namespace dps {

/// One computing node played by the simulator: a one-socket Cluster
/// running `spec` back to back, metered by its own SimulatedRapl. It is
/// what a node client drives when there is no hardware (dps_node
/// --simulate): report() each round, apply() each cap received.
///
/// A node is keyed on (seed, unit) alone — workload jitter from
/// mix_seed(seed, unit), RAPL noise from mix_seed(seed, unit, 0x7261706c)
/// — and report() makes the engine's calls in the engine's order, so a
/// one-socket SimulationEngine run keyed the same way reads bit for bit
/// what the node reports under the same caps.
class SimNode {
 public:
  SimNode(const WorkloadSpec& spec, std::uint64_t seed, int unit);

  /// One second of the node's life under its current cap, then the RAPL
  /// reading of that second.
  Watts report();

  /// Requests a new cap, enforced from the next report() on.
  void apply(Watts cap) { rapl_.set_cap(0, cap); }

  const WorkloadSpec& spec() const { return cluster_.group_workload(0); }
  const std::vector<Completion>& completions() const {
    return cluster_.completions(0);
  }

 private:
  Cluster cluster_;
  SimulatedRapl rapl_;
  std::array<Watts, 1> effective_{};
  std::array<Watts, 1> power_{};
  std::array<Watts, 1> measured_{};
};

}  // namespace dps
