#include "util/ini.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dps {
namespace {

std::string lower(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return text;
}

}  // namespace

std::string_view trim(std::string_view text) {
  const auto begin = text.find_first_not_of(" \t\r");
  if (begin == std::string_view::npos) return {};
  const auto end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
}

std::optional<double> parse_double(std::string_view text) {
  // strtod needs a terminated string; it also accepts what the old
  // getters did (leading '+', exponents, hex floats), and would skip
  // leading blanks, which the whole-text rule refuses.
  const std::string copy(text);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (copy.empty() || std::isspace(static_cast<unsigned char>(copy[0])) ||
      end != copy.c_str() + copy.size() || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::optional<bool> parse_bool(std::string_view text) {
  const std::string v = lower(std::string(text));
  if (v == "true" || v == "yes" || v == "on" || v == "1") return true;
  if (v == "false" || v == "no" || v == "off" || v == "0") return false;
  return std::nullopt;
}

IniFile IniFile::parse(const std::string& text) {
  IniFile ini;
  std::istringstream in(text);
  std::string line;
  std::string section;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const auto comment = line.find_first_of("#;");
    if (comment != std::string::npos) line.erase(comment);
    line = std::string(trim(line));
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') {
        throw std::runtime_error("IniFile: unterminated section at line " +
                                 std::to_string(line_number));
      }
      section = std::string(trim(line.substr(1, line.size() - 2)));
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("IniFile: expected key=value at line " +
                               std::to_string(line_number));
    }
    const std::string key(trim(std::string_view(line).substr(0, eq)));
    const std::string value(trim(std::string_view(line).substr(eq + 1)));
    if (key.empty()) {
      throw std::runtime_error("IniFile: empty key at line " +
                               std::to_string(line_number));
    }
    ini.values_[{section, key}] = value;
    ini.origins_[{section, key}] = "at line " + std::to_string(line_number);
  }
  return ini;
}

IniFile IniFile::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("IniFile: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

std::optional<std::string> IniFile::get(const std::string& section,
                                        const std::string& key) const {
  const auto it = values_.find({section, key});
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

void IniFile::set(const std::string& section, const std::string& key,
                  const std::string& value, const std::string& flag) {
  values_[{section, key}] = value;
  origins_[{section, key}] = "from " + flag;
}

void IniFile::merge(const IniFile& other) {
  for (const auto& [entry, value] : other.values_) values_[entry] = value;
  for (const auto& [entry, origin] : other.origins_) origins_[entry] = origin;
}

std::string IniFile::origin_of(const std::string& section,
                               const std::string& key) const {
  const auto it = origins_.find({section, key});
  return it == origins_.end() ? "" : it->second;
}

bool IniFile::has_section(const std::string& section) const {
  return std::any_of(values_.begin(), values_.end(), [&](const auto& kv) {
    return kv.first.first == section;
  });
}

}  // namespace dps
