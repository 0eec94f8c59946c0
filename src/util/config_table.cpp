#include "util/config_table.hpp"

#include <algorithm>
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

/// `text` broken into lines of at most `width` characters at spaces, each
/// line after the first indented by `indent` spaces.
std::string wrap(const std::string& text, std::size_t indent,
                 std::size_t width) {
  std::istringstream words(text);
  std::string out, line, word;
  while (words >> word) {
    if (!line.empty() && line.size() + 1 + word.size() > width) {
      out += line + "\n" + std::string(indent, ' ');
      line.clear();
    }
    line += (line.empty() ? "" : " ") + word;
  }
  return out + line;
}

}  // namespace

void config_error(const char* section, const char* key,
                  const std::string& what, const IniFile* ini,
                  const char* other) {
  // An options section's key is the flag, which says where it came from.
  if (*section == '\0') throw std::invalid_argument(key + (" " + what));
  std::string message =
      "[" + std::string(section) + "]: " + key + " " + what;
  std::string origin = ini != nullptr ? ini->origin_of(section, key) : "";
  if (origin.empty() && ini != nullptr && other != nullptr) {
    origin = ini->origin_of(section, other);
  }
  if (!origin.empty()) message += " " + origin;
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

void CommandLine::add_flag(const char* flag, const char* section,
                           const char* key, const Flag& spec,
                           FieldRef defaults) {
  // The value's placeholder by FieldRef alternative; a bool takes none.
  static const char* const kValues[] = {"NUM", "INT", "INT", nullptr, "TEXT"};
  std::ostringstream fallback;
  if (!std::holds_alternative<bool*>(defaults)) {
    std::visit([&](auto* member) { fallback << *member; }, defaults);
  }
  entries_.push_back(
      {flag, section, key, spec, kValues[defaults.index()], fallback.str()});
}

std::optional<IniFile> CommandLine::parse(int argc,
                                          const char* const* argv) const {
  IniFile flags;
  const Entry* last = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return std::nullopt;
    const auto entry =
        std::find_if(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.flag == arg; });
    if (entry == entries_.end()) {
      throw std::invalid_argument(
          "unknown argument '" + arg + "'" +
          (last != nullptr ? " after " + last->flag : std::string()));
    }
    std::string value = "true";
    if (entry->value != nullptr) {
      const bool next = i + 1 < argc;
      const bool bare = !next || argv[i + 1][0] == '-';
      if (entry->spec.implicit != nullptr && bare) {
        value = entry->spec.implicit;
      } else if (next) {
        value = argv[++i];
      } else {
        throw std::invalid_argument(entry->flag + " needs a value");
      }
    }
    flags.set(entry->section, entry->key, value, entry->flag);
    last = &*entry;
  }
  return flags;
}

std::string CommandLine::help() const {
  auto usage = [](const Entry& e) {
    if (e.value == nullptr) return e.flag;
    if (e.spec.implicit != nullptr) return e.flag + " [" + e.value + "]";
    return e.flag + " " + e.value;
  };
  std::size_t width = std::string("-h, --help").size();
  for (const auto& e : entries_) width = std::max(width, usage(e).size());
  const std::size_t indent = width + 4;

  std::string out = about_ + "\n\n";
  const char* section = "";
  for (const auto& e : entries_) {
    if (std::strcmp(section, e.section) != 0) {
      section = e.section;
      out += "\n[" + std::string(section) + "] keys:\n";
    }
    std::string text = e.spec.help;
    if (*e.section != '\0') text = std::string(e.key) + ": " + text;
    const std::string shown = e.spec.implicit ? e.spec.implicit : e.fallback;
    if (!shown.empty()) text += " [" + shown + "]";
    std::string line = "  " + usage(e);
    line.resize(indent, ' ');
    out += line + wrap(text, indent, indent + 30 < 79 ? 79 - indent : 30);
    out += "\n";
  }
  std::string line = "  -h, --help";
  line.resize(indent, ' ');
  return out + "\n" + line + "print this help\n";
}

}  // namespace dps
