#pragma once

#include <charconv>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace dps {

/// INI value syntax of the config tables (util/config_table.hpp). The
/// whole text must parse: a double must be finite, an integer must fit
/// `Int` (an optional leading '+'; a '-' only for signed types), and a bool
/// is true/yes/on/1 or false/no/off/0 in any case. nullopt otherwise.
std::optional<double> parse_double(std::string_view text);
std::optional<bool> parse_bool(std::string_view text);

template <class Int>
std::optional<Int> parse_integer(std::string_view text) {
  if (text.size() > 1 && text[0] == '+' && text[1] != '-') {
    text.remove_prefix(1);
  }
  Int value{};
  const char* end = text.data() + text.size();
  const auto [ptr, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

/// Minimal INI-style configuration parser (the C++ counterpart of the
/// paper artifact's config.py). Supports `[section]` headers, `key = value`
/// pairs, `#` / `;` comments, and blank lines. Keys outside any section go
/// into the "" section. Whitespace around keys and values is trimmed.
class IniFile {
 public:
  /// Parses the given text. Throws std::runtime_error on malformed lines.
  static IniFile parse(const std::string& text);

  /// Reads and parses a file. Throws std::runtime_error if unreadable.
  static IniFile load(const std::string& path);

  std::optional<std::string> get(const std::string& section,
                                 const std::string& key) const;

  bool has_section(const std::string& section) const;
  std::size_t size() const { return values_.size(); }

  /// Sets `key` as the command-line flag `flag` did; errors about the key
  /// then cite the flag instead of a line.
  void set(const std::string& section, const std::string& key,
           const std::string& value, const std::string& flag);

  /// Copies every entry of `other` over this file's, with its origin:
  /// flags applied over a --config file.
  void merge(const IniFile& other);

  /// Where the key was set: "at line N" of the parsed text, "from --flag",
  /// or "" when it is absent. Lets semantic validators (not just the syntax
  /// layer) point at the bad value.
  std::string origin_of(const std::string& section,
                        const std::string& key) const;

 private:
  // (section, key) -> value
  std::map<std::pair<std::string, std::string>, std::string> values_;
  // (section, key) -> origin_of's answer, for semantic error messages.
  std::map<std::pair<std::string, std::string>, std::string> origins_;
};

}  // namespace dps
