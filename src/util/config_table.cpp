#include "util/config_table.hpp"

#include <cmath>
#include <stdexcept>

namespace dps {
namespace {

/// "[1, inf)", "(0, 1]": the range in interval notation.
std::string describe(const Range& range) {
  std::ostringstream out;
  out << (range.min_open || std::isinf(range.min) ? '(' : '[') << range.min
      << ", " << range.max
      << (range.max_open || std::isinf(range.max) ? ')' : ']');
  return out.str();
}

}  // namespace

void config_error(const char* section, const char* key,
                  const std::string& what, const IniFile* ini,
                  const char* other) {
  std::string message =
      "[" + std::string(section) + "]: " + key + " " + what;
  int line = ini != nullptr ? ini->line_of(section, key) : 0;
  if (line == 0 && ini != nullptr && other != nullptr) {
    line = ini->line_of(section, other);
  }
  if (line > 0) message += " at line " + std::to_string(line);
  throw std::invalid_argument(message);
}

void read_field(const IniFile& ini, const char* section, const char* key,
                FieldRef ref) {
  const auto text = ini.get(section, key);
  if (!text) return;
  // The expected type when the text does not parse as one, else nullptr.
  const char* expected = std::visit(
      [&](auto* member) -> const char* {
        using T = std::remove_pointer_t<decltype(member)>;
        std::optional<T> value;
        if constexpr (std::is_same_v<T, std::string>) {
          value = *text;
        } else if constexpr (std::is_same_v<T, double>) {
          value = parse_double(*text);
        } else if constexpr (std::is_same_v<T, bool>) {
          value = parse_bool(*text);
        } else {
          value = parse_integer<T>(*text);
        }
        if (value) {
          *member = *value;
          return nullptr;
        }
        if (std::is_same_v<T, double>) return "a finite number";
        if (std::is_same_v<T, bool>) return "true or false";
        if (std::is_same_v<T, int>) return "a 32-bit integer";
        return "a non-negative 64-bit integer";
      },
      ref);
  if (expected != nullptr) {
    config_error(section, key,
                 std::string("must be ") + expected + ", got '" + *text + "'",
                 &ini);
  }
}

void check_field(const char* section, const char* key, const Range& range,
                 FieldRef ref, const IniFile* ini) {
  std::visit(
      [&](auto* member) {
        using T = std::remove_pointer_t<decltype(member)>;
        if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
          const auto value = static_cast<double>(*member);
          const bool above_min =
              range.min_open ? value > range.min : value >= range.min;
          const bool below_max =
              range.max_open ? value < range.max : value <= range.max;
          if (!std::isfinite(value) || !above_min || !below_max) {
            config_error(section, key, "must be in " + describe(range), ini);
          }
        }
      },
      ref);
}

}  // namespace dps
