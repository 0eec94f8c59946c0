#include "sim/sim_node.hpp"

#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace dps {

SimNode::SimNode(const WorkloadSpec& spec, std::uint64_t seed, int unit)
    : cluster_({GroupSpec{spec, 1,
                          mix_seed(seed, static_cast<std::uint64_t>(unit))}}),
      rapl_(1, {.noise_seed = mix_seed(seed, static_cast<std::uint64_t>(unit),
                                       0x7261706cULL)}) {}

Watts SimNode::report() {
  step_physics_block(cluster_, rapl_, {0, 1, 0, 1}, 1.0, effective_, power_,
                     {});
  cluster_.end_step(1.0);
  rapl_.read_power_batch(measured_);
  return measured_[0];
}

}  // namespace dps
