#pragma once

#include <string>

namespace dps {

/// Reads an environment variable used as a bench/experiment knob, falling
/// back to `fallback` when unset or empty. A value that is set but does not
/// parse (trailing characters, out of range) throws std::invalid_argument
/// naming the variable and its value, so a typo never runs the default
/// silently. All benches document their knobs (DPS_REPEATS, DPS_SEED, ...)
/// via these helpers so full-fidelity paper-scale runs and quick CI runs
/// share one binary.
long env_int(const char* name, long fallback);
double env_double(const char* name, double fallback);
std::string env_string(const char* name, const std::string& fallback);

}  // namespace dps
