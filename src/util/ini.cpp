#include "util/ini.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dps {
namespace {

std::string trim(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
}

std::string lower(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return text;
}

}  // namespace

std::optional<double> parse_double(std::string_view text) {
  // strtod needs a terminated string; it also accepts what the old
  // getters did (leading '+', exponents, hex floats).
  const std::string copy(text);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (copy.empty() || end != copy.c_str() + copy.size() ||
      !std::isfinite(value)) {
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
    line = trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') {
        throw std::runtime_error("IniFile: unterminated section at line " +
                                 std::to_string(line_number));
      }
      section = trim(line.substr(1, line.size() - 2));
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("IniFile: expected key=value at line " +
                               std::to_string(line_number));
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      throw std::runtime_error("IniFile: empty key at line " +
                               std::to_string(line_number));
    }
    ini.values_[{section, key}] = value;
    ini.lines_[{section, key}] = line_number;
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

int IniFile::line_of(const std::string& section,
                     const std::string& key) const {
  const auto it = lines_.find({section, key});
  return it == lines_.end() ? 0 : it->second;
}

bool IniFile::has_section(const std::string& section) const {
  return std::any_of(values_.begin(), values_.end(), [&](const auto& kv) {
    return kv.first.first == section;
  });
}

}  // namespace dps
