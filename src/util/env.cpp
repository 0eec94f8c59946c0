#include "util/env.hpp"

#include <cstdlib>
#include <stdexcept>

#include "util/ini.hpp"

namespace dps {
namespace {

[[noreturn]] void unparsable(const char* name, const char* what,
                             const char* value) {
  throw std::invalid_argument(std::string(name) + " must be " + what +
                              ", got '" + value + "'");
}

}  // namespace

long env_int(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const auto parsed = parse_integer<long>(v);
  if (!parsed) unparsable(name, "an integer", v);
  return *parsed;
}

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const auto parsed = parse_double(v);
  if (!parsed) unparsable(name, "a finite number", v);
  return *parsed;
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return v;
}

}  // namespace dps
