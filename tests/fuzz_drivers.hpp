#pragma once

/// Shared fuzz drivers: each driver consumes an arbitrary byte buffer and
/// exercises one parser/codec/subsystem, with the invariant that it either
/// succeeds or throws the documented exception type — never crashes, never
/// corrupts state. Two harnesses drive them:
///   * tests/fuzz_test.cpp — gtest loops over deterministic Rng-generated
///     buffers; always built, so tier-1 ctest exercises every driver.
///   * tests/fuzz_libfuzzer.cpp — LLVMFuzzerTestOneInput entry points,
///     built only with -DDPS_LIBFUZZER=ON (needs clang's libFuzzer).
/// drive_command_line covers the tools' flag parser the same way; the
/// reader and checkpoint drivers cover every CSV input (obs events,
/// analyze's trace, job traces, power traces) and every checkpoint payload
/// ("DPSCKPT", "DPSAGGR", and the manager state restore_manager replays
/// into DPS, SLURM and a two-level tree).

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "analysis/trace_analysis.hpp"
#include "core/checkpoint.hpp"
#include "core/config_io.hpp"
#include "core/dps_manager.hpp"
#include "ctrl/aggregator.hpp"
#include "ctrl/ctrl_config.hpp"
#include "ctrl/tree.hpp"
#include "faults/fault_config.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "managers/slurm_stateless.hpp"
#include "net/net_config.hpp"
#include "net/protocol.hpp"
#include "obs/exporters.hpp"
#include "obs/obs_config.hpp"
#include "sched/arrivals.hpp"
#include "sched/sched_config.hpp"
#include "thermal/thermal_config.hpp"
#include "util/config_table.hpp"
#include "util/csv_reader.hpp"
#include "util/ini.hpp"
#include "workloads/trace_workload.hpp"

namespace dps::fuzz {

/// Wire codec: whatever decodes must re-encode to the identical bytes.
/// Returns false on a round-trip mismatch (the only way to fail without
/// crashing, so both harnesses can assert on it).
inline bool drive_protocol(const std::uint8_t* data, std::size_t size) {
  if (size < kMessageSize) return true;
  WireBytes bytes = {data[0], data[1], data[2]};
  const auto message = decode(bytes);
  if (!message) return true;
  if (message->type == MessageType::kHello) {
    // A hello's payload is version/unit, not deciwatts — its round trip
    // goes through the handshake codec, which must be exact on any bytes.
    const auto hello = decode_hello(bytes);
    if (!hello) return false;
    const auto round = encode_hello(*hello);
    return round[0] == bytes[0] && round[1] == bytes[1] &&
           round[2] == bytes[2];
  }
  const auto round = encode(*message);
  return round[0] == bytes[0] && round[1] == bytes[1] && round[2] == bytes[2];
}

/// INI parser: parse + probe lookups; throwing std::runtime_error on
/// malformed text is the contract, anything else is a bug.
inline void drive_ini(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  try {
    const auto ini = IniFile::parse(text);
    (void)ini.get("a", "b");
    if (const auto x = ini.get("", "x")) (void)parse_double(*x);
    if (const auto k = ini.get("s", "k")) (void)parse_integer<long>(*k);
    if (const auto b = ini.get("s", "b")) (void)parse_bool(*b);
    (void)ini.has_section("s");
  } catch (const std::runtime_error&) {
  }
}

/// CSV tokenizer: parse, then read every cell (and one past each row's
/// end, which reads as empty) through both checked accessors. Unterminated
/// quotes and unparsable cells throw std::runtime_error.
inline void drive_csv(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  try {
    const auto csv = CsvReader::parse(text);
    for (std::size_t r = 0; r < csv.num_rows(); ++r) {
      (void)csv.cell(r, std::string("a"));
      for (std::size_t c = 0; c <= csv.num_fields(r); ++c) {
        try {
          (void)csv.real(r, c);
        } catch (const std::runtime_error&) {
        }
        try {
          (void)csv.integer<int>(r, c);
        } catch (const std::runtime_error&) {
        }
      }
    }
  } catch (const std::runtime_error&) {
  }
}

/// The obs event-log reader (tools/obs_dump's input).
inline void drive_events_csv(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  try {
    (void)obs::read_events_csv(CsvReader::parse(text));
  } catch (const std::runtime_error&) {
  }
}

/// analyze's trace reader, then every statistic analyze prints.
inline void drive_trace_csv(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  try {
    const Trace trace = Trace::from_csv(CsvReader::parse(text));
    for (int u = 0; u < trace.num_units(); ++u) {
      (void)trace.satisfaction_of(u);
      (void)trace.starved_share(u);
      (void)trace.high_priority_share(u);
      (void)trace.phases_of(u);
    }
    (void)trace.group_fairness({0}, {trace.num_units() - 1});
    (void)trace.mean_cap_sum();
  } catch (const std::runtime_error&) {
  }
}

/// The job-trace reader: whatever it accepts, ArrivalStream must take.
/// Returns false if the stream refuses a parsed trace.
inline bool drive_job_trace(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  std::vector<sched::JobArrival> records;
  try {
    records = sched::parse_job_trace(text);
  } catch (const std::runtime_error&) {
    return true;
  }
  try {
    (void)sched::ArrivalStream::from_records(std::move(records));
  } catch (const std::invalid_argument&) {
    return false;
  }
  return true;
}

/// The power-trace reader (workload replay), down to the built spec.
inline void drive_power_trace(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  try {
    const WorkloadSpec spec =
        workload_from_trace_csv(CsvReader::parse(text, false), "fuzz");
    (void)spec.demand_at(spec.nominal_duration() / 2);
  } catch (const std::runtime_error&) {
  }
}

/// "DPSCKPT" payloads: whatever decodes must re-encode to the same bytes.
/// Returns false on a mismatch.
inline bool drive_checkpoint(const std::uint8_t* data, std::size_t size) {
  const std::span<const std::uint8_t> payload(data, size);
  try {
    const auto again = encode_checkpoint(decode_checkpoint(payload));
    return std::equal(again.begin(), again.end(), payload.begin(),
                      payload.end());
  } catch (const std::runtime_error&) {
    return true;
  }
}

/// "DPSAGGR" payloads, with the same round-trip invariant.
inline bool drive_aggregator_checkpoint(const std::uint8_t* data,
                                        std::size_t size) {
  const std::span<const std::uint8_t> payload(data, size);
  try {
    const auto again =
        encode_aggregator_checkpoint(decode_aggregator_checkpoint(payload));
    return std::equal(again.begin(), again.end(), payload.begin(),
                      payload.end());
  } catch (const std::runtime_error&) {
    return true;
  }
}

/// The managers drive_restore restores into, and the one unit count it
/// resets them for.
inline constexpr std::uint8_t kRestoreManagers = 3;
inline constexpr int kRestoreUnits = 4;

/// DPS, the SLURM baseline, or a two-level tree of DPS leaves over shards
/// of two units, as `kind` (modulo kRestoreManagers) picks.
inline std::unique_ptr<PowerManager> restore_target(std::uint8_t kind) {
  switch (kind % kRestoreManagers) {
    case 0:
      return std::make_unique<DpsManager>();
    case 1:
      return std::make_unique<SlurmStatelessManager>();
    default: {
      CtrlConfig ctrl;
      ctrl.shard_size = 2;
      ctrl.max_levels = 2;
      return std::make_unique<TreeController>(ctrl);
    }
  }
}

/// A valid drive_restore input: the selector byte `kind`, then the
/// "DPSCKPT" payload of that manager after 30 rounds over kRestoreUnits
/// units, so mutations start from deep, well-formed state.
inline std::vector<std::uint8_t> restore_seed(std::uint8_t kind) {
  const auto manager = restore_target(kind);
  ManagerContext ctx;
  ctx.num_units = kRestoreUnits;
  ctx.total_budget = 110.0 * kRestoreUnits;
  manager->reset(ctx);
  std::vector<Watts> caps(kRestoreUnits, ctx.constant_cap());
  std::vector<Watts> power(kRestoreUnits);
  for (int r = 0; r < 30; ++r) {
    for (std::size_t u = 0; u < power.size(); ++u) {
      power[u] = u % 2 == 1 ? caps[u] * 0.99 : 30.0 + r % 5;
    }
    manager->decide(power, caps);
  }
  std::vector<std::uint8_t> bytes = {kind};
  const auto payload =
      encode_checkpoint(make_checkpoint(*manager, ctx, 30, caps, caps));
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

/// restore_manager: the first byte picks the manager (restore_target), the
/// rest is a "DPSCKPT" payload. Only a snapshot of kRestoreUnits units is
/// restored, as AggregatorNode::restore refuses a count other than its
/// configured one, so no hostile count makes a manager allocate for it.
inline void drive_restore(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return;
  const auto manager = restore_target(data[0]);
  try {
    const auto ckpt = decode_checkpoint({data + 1, size - 1});
    if (ckpt.ctx.num_units == kRestoreUnits) restore_manager(*manager, ckpt);
  } catch (const std::runtime_error&) {
  }
}

/// Fault plans: arbitrary bytes become (a) generator knobs — generation
/// must always produce a valid, sorted plan — and (b) a raw event list —
/// construction either validates or throws std::invalid_argument. The
/// surviving plan is walked start to end through a FaultInjector, whose
/// per-unit fault counts must return to zero once every window has closed.
/// Returns false if any invariant breaks.
inline bool drive_fault_plan(const std::uint8_t* data, std::size_t size) {
  std::size_t pos = 0;
  auto next_byte = [&]() -> std::uint8_t {
    return pos < size ? data[pos++] : 0;
  };

  const int num_units = 1 + next_byte() % 32;

  FaultPlanConfig config;
  config.seed = next_byte() | (static_cast<std::uint64_t>(next_byte()) << 8);
  config.horizon = 1.0 + next_byte() * 16.0;
  config.crash_rate = next_byte() * 0.5;
  config.sensor_dropout_rate = next_byte() * 0.5;
  config.sensor_garbage_rate = next_byte() * 0.5;
  config.cap_stuck_rate = next_byte() * 0.5;
  config.budget_sag_rate = next_byte() * 0.5;
  config.fan_degrade_rate = next_byte() * 0.5;
  config.temp_stuck_rate = next_byte() * 0.5;
  // Strictly positive: a zero duration means "never clears", which would
  // (correctly) trip the all-windows-closed invariant below.
  config.min_duration = 0.25 + next_byte() * 0.25;
  config.max_duration = config.min_duration + next_byte() * 0.25;
  config.sag_floor = 0.05 + (next_byte() % 95) / 100.0;
  // Fan-degrade magnitudes are resistance multipliers, >= 1 by contract.
  config.fan_degrade_min = 1.0 + (next_byte() % 64) / 32.0;
  config.fan_degrade_max = config.fan_degrade_min + (next_byte() % 64) / 32.0;
  const auto generated = FaultPlan::generate(config, num_units);

  // Raw event list from the remaining bytes — mostly invalid on purpose.
  std::vector<FaultEvent> events;
  while (pos + 5 <= size && events.size() < 64) {
    FaultEvent e;
    e.at = static_cast<double>(next_byte()) - 8.0;  // sometimes negative
    e.duration = static_cast<double>(next_byte()) - 8.0;
    e.unit = static_cast<int>(next_byte()) - 8;  // sometimes out of range
    e.kind = static_cast<FaultKind>(next_byte() % 7);  // all seven kinds
    // In [-0.125, 3.86): straddles 1.0, so fan-degrade events land on both
    // sides of the magnitude-must-be->=1 validator.
    e.magnitude = (static_cast<double>(next_byte()) - 8.0) / 64.0;
    events.push_back(e);
  }
  try {
    const FaultPlan plan(events, num_units);
    if (plan.size() != events.size()) return false;
  } catch (const std::invalid_argument&) {
  }

  // Walk the generated plan to the end: all windows closed, nothing stuck.
  FaultInjector injector(generated, num_units);
  for (Seconds t = 0.0; t <= config.horizon; t += config.horizon / 64.0) {
    injector.advance(t);
  }
  injector.advance(config.horizon + config.max_duration + 1.0);
  if (injector.any_active()) return false;
  if (injector.budget_factor() != 1.0) return false;
  for (int u = 0; u < num_units; ++u) {
    if (injector.crashed(u) || injector.sensor_dropout(u) ||
        injector.sensor_garbage(u) || injector.cap_stuck(u) ||
        injector.temp_sensor_stuck(u)) {
      return false;
    }
    // Closed fan-degrade windows must restore the factor to exactly 1.0
    // (no residual multiplier drift from the overlap product).
    if (injector.fan_degrade_factor(u) != 1.0) return false;
  }
  return injector.activated_count() ==
         static_cast<int>(generated.size());
}

/// One hostile value for a table field, chosen by `control`: absent
/// (nullopt), garbage, negative, zero, NaN, +inf, -inf, INT_MAX + 1, or a
/// value its type and range accept. Absent and valid are drawn most often,
/// so whole sections still parse and reach the round trip.
inline std::optional<std::string> hostile_value(std::uint8_t control,
                                                std::uint8_t pick,
                                                const Range& range,
                                                FieldRef ref) {
  static const char* const kGarbage[] = {"abc", "",   "1.5.2", "0x1g",
                                         "1e",  "--1", "maybe", "12abc"};
  const int choice = control % 28;  // 0-10 absent, 11-20 valid, 21-27 hostile
  if (choice < 11) return std::nullopt;
  switch (choice) {
    case 21: return kGarbage[pick % 8];
    case 22: return "-" + std::to_string(1 + pick % 8);
    case 23: return "0";
    case 24: return "nan";
    case 25: return "inf";
    case 26: return "-inf";
    case 27: return "2147483648";
    default: break;
  }
  return std::visit(
      [&](auto* member) -> std::string {
        using T = std::remove_pointer_t<decltype(member)>;
        if constexpr (std::is_same_v<T, bool>) {
          return pick % 2 ? "true" : "false";
        } else if constexpr (std::is_same_v<T, std::string>) {
          return "v" + std::to_string(pick);
        } else {
          const double inf = std::numeric_limits<double>::infinity();
          const double fraction = (pick + 1) / 257.0;  // in (0, 1)
          double value = (pick - 128) / 4.0;
          if (range.min > -inf && range.max < inf) {
            value = range.min + (range.max - range.min) * fraction;
          } else if (range.min > -inf) {
            value = range.min + 1 + pick / 4.0;
          }
          if constexpr (std::is_same_v<T, double>) {
            std::ostringstream out;
            out << std::setprecision(17) << value;
            return out.str();
          } else {
            const double rounded = std::ceil(std::max(value, range.min));
            return std::to_string(static_cast<long long>(
                std::is_unsigned_v<T> ? std::abs(rounded) : rounded));
          }
        }
      },
      ref);
}

/// True when every table field holds the same value in both configs
/// (doubles compared bit for bit).
template <class C>
bool same_fields(const Section<C>& section, C& a, C& b) {
  for (const auto& field : section.fields) {
    const FieldRef other = field.ref(b);
    const bool same = std::visit(
        [&](auto* member) {
          const auto* twin = std::get<decltype(member)>(other);
          using T = std::remove_pointer_t<decltype(member)>;
          if constexpr (std::is_same_v<T, double>) {
            return std::bit_cast<std::uint64_t>(*member) ==
                   std::bit_cast<std::uint64_t>(*twin);
          } else {
            return *member == *twin;
          }
        },
        field.ref(a));
    if (!same) return false;
  }
  return true;
}

/// One config section under hostile values: each key of the table gets a
/// hostile_value from the input bytes. The section must either parse — and
/// then write_section -> `read` must reproduce every field bit for bit —
/// or throw std::invalid_argument starting with "[section]: ". Returns
/// false if either invariant breaks.
template <class C, class Read>
bool drive_section(const Section<C>& section, Read read,
                   const std::uint8_t* data, std::size_t size) {
  std::size_t pos = 0;
  auto next_byte = [&]() -> std::uint8_t {
    return pos < size ? data[pos++] : 0;
  };
  C defaults{};
  std::string text = "[" + std::string(section.name) + "]\n";
  for (const auto& field : section.fields) {
    const std::uint8_t control = next_byte();
    const auto value =
        hostile_value(control, next_byte(), field.range, field.ref(defaults));
    if (value) text += std::string(field.key) + " = " + *value + "\n";
  }
  try {
    C parsed = read(IniFile::parse(text));
    C round = read(IniFile::parse(write_section(section, parsed)));
    return same_fields(section, parsed, round);
  } catch (const std::invalid_argument& error) {
    const std::string prefix = "[" + std::string(section.name) + "]: ";
    return std::string(error.what()).rfind(prefix, 0) == 0;
  }
}

/// Number of sections drive_config_section covers.
inline constexpr std::uint8_t kConfigSections = 8;

/// Every INI section the repo reads, through its public reader: the first
/// byte picks the section (modulo kConfigSections), the rest feeds
/// drive_section.
inline bool drive_config_section(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return true;
  const std::uint8_t selector = data[0] % kConfigSections;
  ++data;
  --size;
  switch (selector) {
    case 0:
      return drive_section(dps_section(), dps_config_from_ini, data, size);
    case 1:
      return drive_section(
          stateless_section(),
          [](const IniFile& ini) { return mimd_config_from_ini(ini, {}); },
          data, size);
    case 2:
      return drive_section(ctrl_section(), ctrl_config_from_ini, data, size);
    case 3:
      return drive_section(faults_section(), fault_plan_config_from_ini,
                           data, size);
    case 4:
      return drive_section(net_section(), net_config_from_ini, data, size);
    case 5:
      return drive_section(obs::obs_section(), obs::obs_config_from_ini, data,
                           size);
    case 6:
      return drive_section(sched::sched_section(),
                           sched::sched_config_from_ini, data, size);
    default:
      // With no key written the section is absent and the reader returns
      // nullopt; the defaults then stand in for the parsed config.
      return drive_section(
          thermal_section(),
          [](const IniFile& ini) {
            return thermal_config_from_ini(ini).value_or(ThermalConfig{});
          },
          data, size);
  }
}

/// The command-line flag parser's test-local options table: a field of
/// each type with a range, a switch, an optional value and a rule.
struct FuzzOptions {
  int count = 1;
  double rate = 1.0;
  std::size_t seed = 7;
  std::string path;
  std::string root;
  bool on = false;
};

inline const Section<FuzzOptions>& fuzz_options_section() {
  using O = FuzzOptions;
  static const Section<O> section{
      "",
      {{"--count", &O::count, Range::at_least(1), {.help = "count"}},
       {"--rate", &O::rate, Range::above(0), {.help = "rate"}},
       {"--seed", &O::seed, {}, {.help = "seed"}},
       {"--path", &O::path, {}, {.help = "path"}},
       {"--root", &O::root, {}, {.help = "root", .implicit = "/srv"}},
       {"--on", &O::on, {}, {.help = "switch"}}},
      {{"--count", "must be <= 1000", nullptr,
        [](const O& o) { return o.count <= 1000; }}}};
  return section;
}

/// One flag of drive_command_line's argv, with what hostile_value needs.
struct FuzzFlag {
  const char* name;
  Range range;
  FieldRef ref;
};

template <class C>
void add_fuzz_flags(const Section<C>& section, C& defaults,
                    std::vector<FuzzFlag>& flags) {
  for (const auto& field : section.fields) {
    const char* name = *section.name == '\0' ? field.key : field.flag.name;
    if (name != nullptr) {
      flags.push_back({name, field.range, field.ref(defaults)});
    }
  }
}

/// The command-line parser over a random argv of the shared sections'
/// flags and the test-local options table. Each flag gets a hostile_value
/// (garbage, negative, NaN, +-inf, INT_MAX + 1, valid) or none, so the
/// next flag becomes its value or it ends argv without one. Reading every
/// section from the flags must yield configs that pass check_section, or
/// throw std::invalid_argument naming one of the flags. Returns false if
/// either invariant breaks.
inline bool drive_command_line(const std::uint8_t* data, std::size_t size) {
  std::size_t pos = 0;
  auto next_byte = [&]() -> std::uint8_t {
    return pos < size ? data[pos++] : 0;
  };
  CommandLine cli("fuzz");
  cli.add(fuzz_options_section())
      .add(net_section())
      .add(ctrl_section())
      .add(obs::obs_section())
      .add(thermal_section())
      .add(sched::sched_section());
  static FuzzOptions options_defaults;
  static NetConfig net_defaults;
  static CtrlConfig ctrl_defaults;
  static obs::ObsConfig obs_defaults;
  static ThermalConfig thermal_defaults;
  static sched::JobScheduleConfig sched_defaults;
  std::vector<FuzzFlag> flags;
  add_fuzz_flags(fuzz_options_section(), options_defaults, flags);
  add_fuzz_flags(net_section(), net_defaults, flags);
  add_fuzz_flags(ctrl_section(), ctrl_defaults, flags);
  add_fuzz_flags(obs::obs_section(), obs_defaults, flags);
  add_fuzz_flags(thermal_section(), thermal_defaults, flags);
  add_fuzz_flags(sched::sched_section(), sched_defaults, flags);

  std::vector<std::string> tokens;
  const int count = next_byte() % 12;
  for (int i = 0; i < count; ++i) {
    const FuzzFlag& flag = flags[next_byte() % flags.size()];
    tokens.push_back(flag.name);
    const std::uint8_t control = next_byte();
    const auto value =
        hostile_value(control, next_byte(), flag.range, flag.ref);
    if (value) tokens.push_back(*value);
  }
  std::vector<const char*> argv = {"fuzz"};
  for (const auto& token : tokens) argv.push_back(token.c_str());

  FuzzOptions options;
  NetConfig net;
  CtrlConfig ctrl;
  obs::ObsConfig obs;
  ThermalConfig thermal;
  sched::JobScheduleConfig sched;
  try {
    const auto parsed = cli.parse(static_cast<int>(argv.size()), argv.data());
    if (!parsed) return false;  // no --help was generated
    read_section(*parsed, fuzz_options_section(), options);
    net = net_config_from_ini(*parsed);
    ctrl = ctrl_config_from_ini(*parsed);
    obs = obs::obs_config_from_ini(*parsed);
    thermal = thermal_config_from_ini(*parsed).value_or(ThermalConfig{});
    sched = sched::sched_config_from_ini(*parsed);
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    return std::any_of(flags.begin(), flags.end(), [&](const FuzzFlag& f) {
      return what.find(f.name) != std::string::npos;
    });
  }
  try {
    check_section(fuzz_options_section(), options);
    check_section(net_section(), net);
    check_section(ctrl_section(), ctrl);
    check_section(obs::obs_section(), obs);
    check_section(thermal_section(), thermal);
    check_section(sched::sched_section(), sched);
  } catch (const std::invalid_argument&) {
    return false;
  }
  return true;
}

}  // namespace dps::fuzz
