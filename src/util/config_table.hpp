#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "util/ini.hpp"

namespace dps {

// Seed members are std::uint64_t; the tables hold them as std::size_t.
static_assert(std::is_same_v<std::uint64_t, std::size_t>);

/// Allowed values of a numeric field: [min, max], either end open.
struct Range {
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool min_open = false;
  bool max_open = false;

  static Range at_least(double min) { return {min}; }
  static Range above(double min) {
    return {min, std::numeric_limits<double>::infinity(), true};
  }
};

/// Pointer to one config member, of the five types a section may hold.
using FieldRef =
    std::variant<double*, int*, std::size_t*, bool*, std::string*>;

/// One `key = value` of an INI section, bound to a member of C.
template <class C>
struct Field {
  template <class T>
  Field(const char* key, T C::*member, Range range = {})
      : key(key),
        ref([member](C& c) { return FieldRef(&(c.*member)); }),
        range(range) {}
  /// A member of a nested struct (`[sched] power_fit_fraction`).
  template <class S, class T>
  Field(const char* key, S C::*outer, T S::*member, Range range = {})
      : key(key),
        ref([outer, member](C& c) { return FieldRef(&((c.*outer).*member)); }),
        range(range) {}

  const char* key;
  std::function<FieldRef(C&)> ref;
  Range range;
};

/// A rule spanning two fields, e.g. trip > clear. A broken rule is blamed
/// on `key`, or on `other` when only that one appears in the INI.
template <class C>
struct Rule {
  const char* key;
  const char* what;  // completes "[section]: key ..."
  const char* other;
  bool (*holds)(const C&);
};

/// One INI section: its name, a field per key, and the cross-field rules.
/// Defaults live in C itself; keys not in the table are ignored.
template <class C>
struct Section {
  const char* name;
  std::vector<Field<C>> fields;
  std::vector<Rule<C>> rules = {};
};

/// Throws std::invalid_argument("[section]: key what at line N"), citing
/// the line of `key` in `ini`, else of `other`; no line when neither
/// appears or `ini` is null. Every config error goes through here.
[[noreturn]] void config_error(const char* section, const char* key,
                               const std::string& what,
                               const IniFile* ini = nullptr,
                               const char* other = nullptr);

/// Parses `key` of `section` into the member behind `ref` when the key is
/// present; the value must parse completely and fit the member's type.
void read_field(const IniFile& ini, const char* section, const char* key,
                FieldRef ref);
/// Throws unless a numeric member behind `ref` is finite and in `range`.
void check_field(const char* section, const char* key, const Range& range,
                 FieldRef ref, const IniFile* ini);

/// Checks every field's range and every rule, on parsed and code-built
/// configs alike. With `ini`, errors cite the offending line.
template <class C>
void check_section(const Section<C>& section, const C& config,
                   const IniFile* ini = nullptr) {
  C& members = const_cast<C&>(config);  // only read through the refs
  for (const auto& field : section.fields) {
    check_field(section.name, field.key, field.range, field.ref(members),
                ini);
  }
  for (const auto& rule : section.rules) {
    if (!rule.holds(config)) {
      config_error(section.name, rule.key, rule.what, ini, rule.other);
    }
  }
}

/// Overwrites every member whose key appears in the section, then runs
/// check_section.
template <class C>
void read_section(const IniFile& ini, const Section<C>& section, C& config) {
  for (const auto& field : section.fields) {
    read_field(ini, section.name, field.key, field.ref(config));
  }
  check_section(section, config, &ini);
}

/// The section with every field explicit, doubles to 17 digits: reading
/// it back reproduces the config bit for bit (strings: when they hold no
/// '#', ';', line break or surrounding whitespace, i.e. anything IniFile
/// can have parsed).
template <class C>
std::string write_section(const Section<C>& section, const C& config) {
  std::ostringstream out;
  out << std::boolalpha << std::setprecision(17);
  out << '[' << section.name << "]\n";
  C& members = const_cast<C&>(config);  // only read through the refs
  for (const auto& field : section.fields) {
    std::visit([&](auto* member) { out << field.key << " = " << *member; },
               field.ref(members));
    out << '\n';
  }
  return out.str();
}

}  // namespace dps
