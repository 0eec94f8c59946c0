/// obs_dump — offline converter for observability event logs: reads the
/// cheap events CSV a long sweep records (see src/obs/exporters.hpp) and
/// writes the Chrome trace_event JSON that chrome://tracing and Perfetto
/// open directly. Lets runs record at CSV cost and pay for JSON only when
/// a human actually wants to look.
///
/// Usage:
///   obs_dump <events.csv> <out.trace.json>
///   obs_dump <events.csv> -          # JSON to stdout

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/exporters.hpp"
#include "util/csv.hpp"

int main(int argc, char** argv) {
  if (argc != 3 || std::string(argv[1]) == "--help") {
    std::fprintf(stderr,
                 "usage: obs_dump <events.csv> <out.trace.json|->\n"
                 "Converts an obs events CSV (time,kind,unit,value,extra,"
                 "detail)\ninto Chrome trace_event JSON for chrome://tracing"
                 " / Perfetto.\n");
    return 2;
  }
  try {
    const auto records = dps::obs::read_events_csv(argv[1]);
    const std::string out_path = argv[2];
    if (out_path == "-") {
      dps::obs::write_chrome_trace(records, std::cout);
    } else {
      std::ofstream out(out_path);
      if (!out) {
        std::fprintf(stderr, "obs_dump: cannot write %s\n", out_path.c_str());
        return 1;
      }
      dps::obs::write_chrome_trace(records, out);
      dps::flush_or_throw(out, out_path);
      std::fprintf(stderr, "obs_dump: %zu events -> %s\n", records.size(),
                   out_path.c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "obs_dump: %s\n", error.what());
    return 1;
  }
  return 0;
}
