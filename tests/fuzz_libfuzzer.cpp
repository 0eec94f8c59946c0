/// libFuzzer entry point over the shared fuzz drivers (tests/
/// fuzz_drivers.hpp). Built only with -DDPS_LIBFUZZER=ON (requires clang's
/// -fsanitize=fuzzer); the gtest harness in fuzz_test.cpp exercises the
/// same drivers unconditionally, so tier-1 coverage never depends on this
/// binary existing.
///
/// The first byte selects the driver so one corpus can explore all of
/// them:
///   0 -> wire protocol codec     2 -> CSV tokenizer and accessors
///   1 -> INI parser              3 -> fault-plan generator/injector
///   4 -> config sections: every INI table's reader and round trip
///   5 -> the tools' command-line flag parser
///   6 -> obs events CSV          7 -> analyze's trace CSV
///   8 -> job trace               9 -> power trace
///  10 -> "DPSCKPT" payload      11 -> "DPSAGGR" payload
///  12 -> restore_manager into DPS, SLURM or a two-level tree

#include <cstddef>
#include <cstdint>
#include <cstdlib>

#include "fuzz_drivers.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const std::uint8_t selector = data[0] % 13;
  ++data;
  --size;
  switch (selector) {
    case 0:
      if (!dps::fuzz::drive_protocol(data, size)) std::abort();
      break;
    case 1:
      dps::fuzz::drive_ini(data, size);
      break;
    case 2:
      dps::fuzz::drive_csv(data, size);
      break;
    case 3:
      if (!dps::fuzz::drive_fault_plan(data, size)) std::abort();
      break;
    case 4:
      if (!dps::fuzz::drive_config_section(data, size)) std::abort();
      break;
    case 5:
      if (!dps::fuzz::drive_command_line(data, size)) std::abort();
      break;
    case 6:
      dps::fuzz::drive_events_csv(data, size);
      break;
    case 7:
      dps::fuzz::drive_trace_csv(data, size);
      break;
    case 8:
      if (!dps::fuzz::drive_job_trace(data, size)) std::abort();
      break;
    case 9:
      dps::fuzz::drive_power_trace(data, size);
      break;
    case 10:
      if (!dps::fuzz::drive_checkpoint(data, size)) std::abort();
      break;
    case 11:
      if (!dps::fuzz::drive_aggregator_checkpoint(data, size)) std::abort();
      break;
    default:
      dps::fuzz::drive_restore(data, size);
      break;
  }
  return 0;
}
