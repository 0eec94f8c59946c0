/// analyze — post-process a recorded telemetry trace (the counterpart of
/// the paper artifact's analysis/plotting scripts, printing tables instead
/// of figures). Input: the CSV that `exp --trace` writes (Trace in
/// src/sim/trace.hpp).
///
/// Usage:
///   analyze <trace.csv> [--split N]
///
/// --split N treats units [0, N) as cluster A and [N, end) as cluster B
/// (default: half/half), for the satisfaction/fairness computation. The
/// first unit of each cluster also gets an ASCII timeline of its demand,
/// power and cap. `analyze --help` lists the flags; an unknown flag or a
/// bad value exits 2 naming the flag.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/trace.hpp"
#include "util/config_table.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

struct Options {
  int split = -1;
};

const dps::Section<Options>& options_section() {
  static const dps::Section<Options> section{
      "",
      {{"--split", &Options::split, {},
        {.help = "units [0, N) are cluster A, the rest cluster B; below 0: "
                 "half and half"}}}};
  return section;
}

/// One character per time bucket of `series` (72 buckets, or a few more
/// when the length does not divide): the bucket's mean as a 0-9 level of
/// the paper's 165 W TDP.
std::string sparkline(const std::vector<double>& series) {
  std::string line;
  if (series.empty()) return line;
  const std::size_t per_bucket = std::max<std::size_t>(1, series.size() / 72);
  for (std::size_t i = 0; i < series.size(); i += per_bucket) {
    const std::size_t end = std::min(series.size(), i + per_bucket);
    double sum = 0.0;
    for (std::size_t j = i; j < end; ++j) sum += series[j];
    const double mean = sum / static_cast<double>(end - i);
    line += static_cast<char>(
        '0' + std::clamp(static_cast<int>(mean / 165.0 * 9.0), 0, 9));
  }
  return line;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dps;
  CommandLine cli(
      "analyze <trace.csv> [--split N] — post-process a recorded trace");
  cli.add(options_section());
  // The trace comes first; the flags follow it.
  const std::string path = argc > 1 ? argv[1] : "";
  const bool help = path == "--help" || path == "-h";
  if (path.empty() || (path[0] == '-' && !help)) {
    std::fprintf(stderr, "usage: analyze <trace.csv> [--split N]\n");
    return 2;
  }
  Options options;
  try {
    const auto flags = help ? std::nullopt : cli.parse(argc - 1, argv + 1);
    if (!flags) {
      std::fputs(cli.help().c_str(), stdout);
      return 0;
    }
    read_section(*flags, options_section(), options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "analyze: %s\n", error.what());
    return 2;
  }
  int split = options.split;

  try {
    const auto trace = Trace::load_csv(path);
    const int units = trace.num_units();
    if (split < 0) split = units / 2;

    std::printf("%s: %d units, %zu samples/unit, mean cap sum %.1f W\n\n",
                path.c_str(), units, trace.unit(0).time.size(),
                trace.mean_cap_sum());

    Table table({"unit", "satisfaction", "starved share", "phases",
                 "longest [s]", "max peak [W]", "high-pri share"});
    for (int u = 0; u < units; ++u) {
      const auto phases = trace.phases_of(u);
      const double high_share = trace.high_priority_share(u);
      table.add_row({std::to_string(u),
                     format_double(trace.satisfaction_of(u), 3),
                     format_double(trace.starved_share(u), 3),
                     std::to_string(phases.phase_count),
                     format_double(phases.longest, 0),
                     format_double(phases.max_peak, 0),
                     high_share < 0.0 ? "-" : format_double(high_share, 2)});
    }
    table.print();

    std::vector<int> first_units = {0};  // of each cluster
    if (split > 0 && split < units) {
      first_units.push_back(split);
      std::vector<int> group_a, group_b;
      for (int u = 0; u < split; ++u) group_a.push_back(u);
      for (int u = split; u < units; ++u) group_b.push_back(u);
      std::printf("\nfairness(units 0..%d vs %d..%d) = %.3f (Eq. 2)\n",
                  split - 1, split, units - 1,
                  trace.group_fairness(group_a, group_b));
    }

    std::printf("\n");
    for (const int u : first_units) {
      const UnitTrace& series = trace.unit(u);
      std::printf("unit %d:\n  demand %s\n  power  %s\n  cap    %s\n\n", u,
                  sparkline(series.demand).c_str(),
                  sparkline(series.true_power).c_str(),
                  sparkline(series.cap).c_str());
    }
    std::printf("(each char is a time bucket; 0-9 scales 0-165 W)\n");
  } catch (const std::exception& error) {
    std::fprintf(stderr, "analyze: %s\n", error.what());
    return 1;
  }
  return 0;
}
