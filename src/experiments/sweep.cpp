#include "experiments/sweep.hpp"

#include "util/env.hpp"
#include "util/rng.hpp"

namespace dps {

int sweep_jobs() {
  const long jobs = env_int("DPS_JOBS", static_cast<long>(available_threads()));
  return jobs < 1 ? 1 : static_cast<int>(jobs);
}

std::uint64_t task_seed(std::uint64_t base, std::uint64_t index) {
  // Salted so task 0 of a sweep never collides with the base seed itself
  // (benches feed the base seed to PairRunner directly).
  return mix_seed(base, index, 0x5157eeb0a8250137ULL);
}

}  // namespace dps
