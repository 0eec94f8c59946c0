#include "managers/slurm_stateless.hpp"

namespace dps {

SlurmStatelessManager::SlurmStatelessManager(const MimdConfig& config)
    : mimd_(config) {}

void SlurmStatelessManager::reset(const ManagerContext& ctx) {
  mimd_.reset(ctx);
}

void SlurmStatelessManager::load_state(ByteReader& in) {
  if (!in.exhausted()) mimd_.load_state(in);
}

void SlurmStatelessManager::decide(std::span<const Watts> power,
                                   std::span<Watts> caps) {
  mimd_.decide(power, caps);
}

}  // namespace dps
