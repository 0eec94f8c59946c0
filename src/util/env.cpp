#include "util/env.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

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
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE) {
    unparsable(name, "an integer", v);
  }
  return parsed;
}

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE) {
    unparsable(name, "a number", v);
  }
  return parsed;
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return v;
}

}  // namespace dps
