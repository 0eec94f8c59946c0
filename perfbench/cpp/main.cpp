// perfbench: runs one benchmark workload and prints its metrics; the last
// line of stdout is the JSON result. perfbench/run.py builds this binary
// and is the command to use:
//
//   python3 perfbench/run.py --workload pair_grid --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics through the program's real
// entry points; --trace 1 runs the workload's fixed units once untraced
// and once through the traced copies, checks that both give the same
// outputs, and reports the per-layer split. See perfbench/METRICS.md.

#include <sched.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr std::uint64_t kCanarySeed = 1;
/// Set-up samples per run: at least this many, and for set-ups cheaper
/// than ~10 ms up to kCheapSetups, so the median is steady.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kCheapSetups = 51;
/// A run that hangs (a lost client, a wedged round) ends here, well inside
/// the 180 s a run may take, without printing a result.
constexpr unsigned kWatchdogSeconds = 170;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::optional<std::uint64_t> canary_digest;
  std::optional<std::uint64_t> prefix_digest;
  std::string trace_out;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                 [--canary-digest HEX] [--prefix-digest HEX]\n"
               "                 [--trace-out FILE] [--commit ID]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_hex(const std::string& s) { return std::stoull(s, nullptr, 16); }

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
        have_seconds = o.seconds > 0.0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
        have_trace = true;
      } else if (arg == "--canary-digest") {
        o.canary_digest = parse_hex(value);
      } else if (arg == "--prefix-digest") {
        o.prefix_digest = parse_hex(value);
      } else if (arg == "--trace-out") {
        o.trace_out = value;
      } else if (arg == "--commit") {
        o.commit = value;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return o;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// Correctness ledger of a run: operations checked and failed.
struct Ledger {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> problems;

  void fail(long n, const std::string& why) {
    failed += n;
    problems.push_back(why);
  }
  void take(const UnitResult& unit, const std::string& label) {
    attempted += unit.attempted;
    failed += unit.failed_items;
    for (const auto& p : unit.problems) problems.push_back(label + ": " + p);
  }
};

/// Units after the prefix repeat earlier inputs and must repeat their
/// outputs item for item.
void check_repeats(const std::vector<UnitResult>& units, int prefix, Ledger& ledger) {
  for (std::size_t i = static_cast<std::size_t>(prefix); i < units.size(); ++i) {
    const auto& twin = units[i % static_cast<std::size_t>(prefix)];
    const auto& unit = units[i];
    long mismatched = 0;
    for (std::size_t k = 0; k < unit.item_digests.size(); ++k) {
      if (k >= twin.item_digests.size() || unit.item_digests[k] != twin.item_digests[k]) {
        ++mismatched;
      }
    }
    if (mismatched > 0 || unit.digest != twin.digest) {
      ledger.fail(std::max(mismatched, 1L),
                  "unit " + std::to_string(i) + " differs from its twin unit " +
                      std::to_string(i % prefix));
    }
  }
}

std::uint64_t prefix_digest(const std::vector<UnitResult>& units, int prefix) {
  Digest d;
  for (int i = 0; i < prefix; ++i) d.add(units[static_cast<std::size_t>(i)].digest);
  return d.value();
}

/// The process's peak resident set (VmHWM). getrusage's ru_maxrss would
/// not do: Linux carries it across exec, so it starts at the launching
/// process's size.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool integer = false;
};

void print_result(const Ledger& ledger, const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("metric %-26s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& p : ledger.problems) std::printf("problem %s\n", p.c_str());
  std::string json = "{\"correct\": ";
  json += ledger.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted);
  json += ", \"failed\": " + std::to_string(ledger.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    if (metrics[i].integer) {
      std::snprintf(value, sizeof value, "%.0f", metrics[i].value);
    } else {
      std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    }
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Each timing metric is computed per unit. The shared VM this was sized on
/// switches between a fast and a slow phase (churn steps of ~70 and ~97 us,
/// tcp_loop rounds of ~24 and ~42 us) that last seconds, so a median over
/// units picks one phase and jumps between them as their mix moves from
/// run to run. The central figures therefore average over the run: the
/// rate is all steps over all measured time, and the p50s are means of the
/// units' p50s. The tails are medians over units, so a burst that inflates
/// one unit's tail does not set the run's.
std::vector<Metric> end_to_end(const std::vector<UnitResult>& units, int prefix,
                               const std::vector<double>& setups, double rss_mb) {
  std::vector<double> cell50, cell90, round50, round99;
  double steps = 0.0;
  double body_s = 0.0;
  std::size_t cells = 0;
  std::size_t rounds = 0;
  // A unit without samples of a kind (cut short by a failure, or one of the
  // first two of three grid passes, whose cells are folded into the third's)
  // is skipped there.
  const UnitResult* sampled = nullptr;
  for (const auto& u : units) {
    if (!u.cell_ms.empty()) {
      steps += static_cast<double>(u.counts.steps);
      body_s += u.body_s;
      cell50.push_back(percentile(u.cell_ms, 50.0));
      cell90.push_back(percentile(u.cell_ms, 90.0));
      cells += u.cell_ms.size();
      sampled = &u;
    }
    if (!u.round_us.empty()) {
      round50.push_back(percentile(u.round_us, 50.0));
      round99.push_back(percentile(u.round_us, 99.0));
      rounds += u.round_us.size();
    }
  }
  if (cell50.empty() || round50.empty()) throw std::runtime_error("no unit produced timing samples");
  SimOutcome sim;
  for (int i = 0; i < prefix; ++i) sim.add(units[static_cast<std::size_t>(i)].sim);
  std::printf("samples units=%zu setups=%zu cells=%zu (%zu per unit, %zu beyond p90) "
              "rounds=%zu (%zu per unit, %zu beyond p99)\n",
              units.size(), setups.size(), cells, sampled->cell_ms.size(),
              samples_beyond(sampled->cell_ms, 90.0), rounds, sampled->round_us.size(),
              sampled->round_us.empty() ? 0 : samples_beyond(sampled->round_us, 99.0));
  return {
      {"setup_s", median(setups), "s"},
      {"steps_per_s", ratio(steps, body_s), "1/s"},
      {"cell_ms_p50", mean(cell50), "ms"},
      {"cell_ms_p90", median(cell90), "ms"},
      {"round_us_p50", mean(round50), "us"},
      {"round_us_p99", median(round99), "us"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"dps_pair_hmean", sim.hmean_speedup(), "ratio"},
      {"runs_completed", static_cast<double>(sim.runs_completed), "count", true},
      {"bounded_slowdown", sim.bounded_slowdown(), "ratio"},
  };
}

std::vector<Metric> per_layer(const Tracer& tracer, const std::vector<UnitResult>& plain,
                              const std::vector<UnitResult>& traced, const Ledger& ledger) {
  const auto names = span_names();
  const auto stats = tracer.stats();
  auto get = [&](const std::string& name) -> NameStats {
    for (std::size_t i = 0; i < names.size() && i < stats.size(); ++i) {
      if (names[i] == name) return stats[i];
    }
    return {};
  };
  LayerCounts c;
  double plain_body = 0.0;
  double traced_body = 0.0;
  for (const auto& u : traced) {
    c.add(u.counts);
    traced_body += u.body_s;
  }
  for (const auto& u : plain) plain_body += u.body_s;
  const double us = static_cast<double>(c.unit_steps);
  const double steps = static_cast<double>(c.steps);
  auto self_ns = [&](const std::string& name) { return ratio(get(name).self_ns, us); };

  // The traced breakdown: every span name's self time per unit-step and
  // its share of the traced wall time.
  const double wall_ns = get("bench.unit").total_ns;
  for (std::size_t i = 0; i < names.size() && i < stats.size(); ++i) {
    if (stats[i].count == 0) continue;
    std::printf("span %-18s calls %-10" PRId64 " self %10.2f ns/unit-step  %6.2f%% of wall\n",
                names[i].c_str(), stats[i].count, ratio(stats[i].self_ns, us),
                100.0 * ratio(stats[i].self_ns, wall_ns));
  }

  const NameStats round = get("net.round");
  std::vector<double> io_us, decide_us;
  for (std::size_t i = 0; i < round.self_samples.size(); ++i) {
    io_us.push_back(round.self_samples[i] * 1e-3);
    decide_us.push_back((round.total_samples[i] - round.self_samples[i]) * 1e-3);
  }
  const NameStats tree = get("ctrl.decide");
  const double envelope_self = get("bench.unit").self_ns + get("bench.cell").self_ns;
  return {
      {"core.history_ns", self_ns("core.history"), "ns"},
      {"core.priority_ns", self_ns("core.priority"), "ns"},
      {"core.readjust_ns", self_ns("core.readjust"), "ns"},
      {"core.decide_ns",
       ratio(get("core.decide").self_ns + get("ctrl.leaf").self_ns + get("ctrl.root").self_ns, us),
       "ns"},
      {"core.restore_frac", ratio(tracer.counted(Count::kRestores), tracer.counted(Count::kDpsDecides)),
       "ratio"},
      {"core.high_priority_frac",
       ratio(tracer.counted(Count::kHighPriority), tracer.counted(Count::kDpsUnits)), "ratio"},
      {"managers.mimd_ns", self_ns("managers.mimd"), "ns"},
      {"managers.slurm_ns", self_ns("managers.slurm"), "ns"},
      {"sim.step_ns", self_ns("sim.step"), "ns"},
      {"power.read_ns", self_ns("power.read"), "ns"},
      {"power.record_ns", self_ns("power.record"), "ns"},
      {"power.set_cap_ns", self_ns("power.set_cap"), "ns"},
      {"power.cap_change_frac",
       ratio(static_cast<double>(c.cap_changes), static_cast<double>(c.cap_unit_writes)), "ratio"},
      {"ctrl.decide_ns", ratio(tree.total_ns, us), "ns"},
      {"ctrl.leaf_ns", ratio(get("ctrl.leaf").total_ns, us), "ns"},
      {"ctrl.root_us", ratio(get("ctrl.root").total_ns, steps) * 1e-3, "us"},
      {"ctrl.self_ns", ratio(tree.self_ns, us), "ns"},
      {"ctrl.critical_path_us",
       ratio(c.critical_path_ns_sum, static_cast<double>(c.critical_path_samples)) * 1e-3, "us"},
      {"ctrl.parallel_eff", ratio(tree.remote_sum_ns, tree.remote_union_ns * c.leaf_jobs), "ratio"},
      {"faults.advance_ns", ratio(get("faults.advance").self_ns + get("faults.recovery").self_ns, us),
       "ns"},
      {"faults.active_step_frac", ratio(static_cast<double>(c.faulted_steps), steps), "ratio"},
      {"faults.dropped_cap_writes", static_cast<double>(c.dropped_cap_writes), "count", true},
      {"thermal.step_ns", self_ns("thermal.step"), "ns"},
      {"thermal.governor_ns", self_ns("thermal.governor"), "ns"},
      {"thermal.throttle_events", static_cast<double>(c.throttle_events), "count", true},
      {"sched.tick_ns", self_ns("sched.tick"), "ns"},
      {"sched.requeued", static_cast<double>(c.requeued), "count", true},
      {"sched.abandoned", static_cast<double>(c.abandoned), "count", true},
      {"sched.utilization", ratio(c.utilization_sum, static_cast<double>(c.job_streams)), "ratio"},
      {"net.io_us_p50", io_us.empty() ? 0.0 : median(io_us), "us"},
      {"net.decide_us_p50", decide_us.empty() ? 0.0 : median(decide_us), "us"},
      {"net.set_cap_frac",
       ratio(static_cast<double>(c.set_cap_messages),
             static_cast<double>(c.set_cap_messages + c.keep_cap_messages)),
       "ratio"},
      {"net.deadline_misses", static_cast<double>(c.deadline_misses), "count", true},
      {"experiments.solo_s",
       get("experiments.solo").total_ns * 1e-9 / static_cast<double>(traced.size()), "s"},
      {"trace.coverage_frac", 1.0 - ratio(envelope_self, wall_ns), "ratio"},
      {"trace.overhead_frac", ratio(traced_body - plain_body, plain_body), "ratio"},
      {"failed_frac", ratio(static_cast<double>(ledger.failed), static_cast<double>(ledger.attempted)),
       "ratio"},
  };
}

int run(const Options& o) {
  const auto workload = make_workload(o.workload, o.seed, Scale::kFull);
  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"trace\": %d, "
      "\"nproc\": %d, \"cpu\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"dps_native\": %s, \"commit\": \"%s\", \"threads\": %d}\n",
      o.workload.c_str(), o.seed, o.trace ? 1 : 0, usable_cpus(), PERFBENCH_CPU,
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_NATIVE ? "true" : "false",
      o.commit.c_str(), workload->threads());
  Ledger ledger;

  // The canary: a small instance at a fixed seed whose digest is stored
  // with the benchmark. A change to the program's simulated outputs shows
  // here whatever seed the run was given.
  {
    const auto canary = make_workload(o.workload, kCanarySeed, Scale::kSmall);
    const UnitResult c = canary->run(0);
    ledger.take(c, "canary");
    std::printf("canary_digest %s\n", hex(c.digest).c_str());
    if (o.canary_digest && *o.canary_digest != c.digest) {
      ledger.fail(c.attempted, "canary digest " + hex(c.digest) + " != stored " +
                                   hex(*o.canary_digest));
    }
  }

  const int prefix = workload->prefix_units();
  std::vector<UnitResult> units;
  std::vector<double> setups;
  std::vector<UnitResult> traced;
  double rss_mb = 0.0;
  Tracer tracer;
  tracer.sample(SpanName("net.round"));
  int exit_code = 0;
  if (!o.trace) {
    const auto start = now_ns();
    for (int i = 0;; ++i) {
      const double elapsed = seconds_since(start);
      if (i >= workload->min_units() && elapsed + 0.5 * elapsed / i >= o.seconds) break;
      units.push_back(workload->run(i));
      // The program's footprint is set once every distinct input has run;
      // later units only add the benchmark's own samples.
      if (i + 1 == prefix) rss_mb = peak_rss_mb();
    }
    double extra_setup_s = 0.0;
    for (const auto& u : units) setups.push_back(u.setup_s);
    while (setups.size() < kMinSetups ||
           (setups.size() < kCheapSetups && extra_setup_s < 0.2)) {
      setups.push_back(workload->setup_once());
      extra_setup_s += setups.back();
    }
    for (std::size_t i = 0; i < units.size(); ++i) ledger.take(units[i], "unit " + std::to_string(i));
    check_repeats(units, prefix, ledger);
  } else {
    // Each unit untraced, then traced, so the overhead compares neighbours.
    for (int i = 0; i < prefix; ++i) {
      units.push_back(workload->run(i));
      Tracer::Activation on(tracer);
      traced.push_back(workload->run_traced(i));
    }
    for (int i = 0; i < prefix; ++i) {
      const auto& plain = units[static_cast<std::size_t>(i)];
      const auto& copy = traced[static_cast<std::size_t>(i)];
      ledger.take(plain, "unit " + std::to_string(i));
      ledger.take(copy, "traced unit " + std::to_string(i));
      if (copy.digest != plain.digest || copy.counts.steps != plain.counts.steps) {
        // Loud: a traced copy that drifted from the program measures
        // something else, so its split would be meaningless.
        std::fprintf(stderr,
                     "perfbench: traced copy of %s unit %d diverged from the program "
                     "(digest %s vs %s, steps %" PRId64 " vs %" PRId64 ")\n",
                     o.workload.c_str(), i, hex(copy.digest).c_str(), hex(plain.digest).c_str(),
                     copy.counts.steps, plain.counts.steps);
        ledger.fail(copy.attempted, "traced copy diverged on unit " + std::to_string(i));
        exit_code = 1;
      }
    }
    if (!o.trace_out.empty()) tracer.write_csv(o.trace_out);
  }

  const std::uint64_t digest = prefix_digest(units, prefix);
  std::printf("prefix_digest %s\n", hex(digest).c_str());
  if (o.prefix_digest) {
    ++ledger.attempted;
    if (*o.prefix_digest != digest) {
      ledger.fail(1, "prefix digest " + hex(digest) + " != stored " + hex(*o.prefix_digest));
    }
  }
  print_result(ledger, o.trace ? per_layer(tracer, units, traced, ledger)
                               : end_to_end(units, prefix, setups, rss_mb));
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  alarm(kWatchdogSeconds);
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
