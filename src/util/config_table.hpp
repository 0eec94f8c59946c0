#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <iomanip>
#include <limits>
#include <optional>
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

/// The command-line flag that sets a field as its INI key would
/// (`dpsd --round-deadline 2` is `[net] round_deadline_s = 2`). A bool
/// field's flag takes no value and sets it true; a flag with an `implicit`
/// value takes the next argument only when one follows that does not
/// start with '-', and is set to `implicit` otherwise.
struct Flag {
  const char* name = nullptr;  // nullptr: the INI key has no flag
  const char* help = "";
  const char* implicit = nullptr;
};

/// One `key = value` of an INI section, bound to a member of C.
template <class C>
struct Field {
  template <class T>
  Field(const char* key, T C::*member, Range range = {}, Flag flag = {})
      : key(key),
        ref([member](C& c) { return FieldRef(&(c.*member)); }),
        range(range),
        flag(flag) {}
  /// A member of a nested struct (`[sched] power_fit_fraction`).
  template <class S, class T>
  Field(const char* key, S C::*outer, T S::*member, Range range = {},
        Flag flag = {})
      : key(key),
        ref([outer, member](C& c) { return FieldRef(&((c.*outer).*member)); }),
        range(range),
        flag(flag) {}

  const char* key;
  std::function<FieldRef(C&)> ref;
  Range range;
  Flag flag;
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
/// Defaults live in C itself; keys not in the table are ignored. A section
/// with an empty name holds a tool's own options: it is read from the
/// command line only, and each field's key is its flag (`--repeats`).
template <class C>
struct Section {
  const char* name;
  std::vector<Field<C>> fields;
  std::vector<Rule<C>> rules = {};
};

/// Throws std::invalid_argument("[section]: key what at line N"), citing
/// where `ini` set `key`, else `other`: a line, or "from --flag" for a
/// command-line value. Nothing is cited when neither appears or `ini` is
/// null, and an options section's key is its flag ("--repeats what").
/// Every config error goes through here.
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

/// A tool's command line, declared by config tables instead of by hand:
/// every field of an options section (empty name) and the flagged fields
/// of the INI sections whose keys the tool lets flags set. parse() only
/// collects the flags as INI assignments; reading a section from them
/// (merged over the --config file for an INI section) parses the values
/// and checks the section once, so a flag obeys its key's rules.
class CommandLine {
 public:
  explicit CommandLine(std::string about) : about_(std::move(about)) {}

  /// Accepts the flags of `section`: of an INI section only those of the
  /// fields named in `keys`, or of every flagged field when it is empty.
  template <class C>
  CommandLine& add(const Section<C>& section,
                   std::initializer_list<const char*> keys = {}) {
    C defaults{};
    for (const auto& field : section.fields) {
      const char* flag = *section.name == '\0' ? field.key : field.flag.name;
      bool listed = keys.size() == 0;
      for (const char* key : keys) listed |= std::strcmp(key, field.key) == 0;
      if (flag != nullptr && listed) {
        add_flag(flag, section.name, field.key, field.flag,
                 field.ref(defaults));
      }
    }
    return *this;
  }

  /// The flags of argv[1..] as INI assignments, each at its field's
  /// section and key and tagged with the flag for error messages; a later
  /// flag overrides an earlier one. nullopt on --help or -h. Throws
  /// std::invalid_argument naming the flag on an unknown argument or a
  /// missing value.
  std::optional<IniFile> parse(int argc, const char* const* argv) const;

  /// `about`, then one line per flag: value type, help and default.
  std::string help() const;

 private:
  struct Entry {
    std::string flag;
    const char* section;
    const char* key;
    Flag spec;
    const char* value;  // the value's placeholder; nullptr: takes none
    std::string fallback;
  };
  void add_flag(const char* flag, const char* section, const char* key,
                const Flag& spec, FieldRef defaults);

  std::string about_;
  std::vector<Entry> entries_;
};

}  // namespace dps
