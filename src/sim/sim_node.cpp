#include "sim/sim_node.hpp"

#include "util/rng.hpp"

namespace dps {
namespace {

RaplSimConfig node_rapl(std::uint64_t seed, int unit) {
  RaplSimConfig config;
  config.noise_seed =
      mix_seed(seed, static_cast<std::uint64_t>(unit), 0x7261706cULL);
  return config;
}

}  // namespace

SimNode::SimNode(const WorkloadSpec& spec, std::uint64_t seed, int unit)
    : cluster_({GroupSpec{spec, 1,
                          mix_seed(seed, static_cast<std::uint64_t>(unit))}}),
      rapl_(1, node_rapl(seed, unit)) {}

Watts SimNode::report() {
  rapl_.effective_caps_batch(effective_);
  cluster_.step(1.0, effective_, power_);
  rapl_.record_batch(power_, 1.0);
  rapl_.advance_step();
  rapl_.read_power_batch(measured_);
  return measured_[0];
}

}  // namespace dps
