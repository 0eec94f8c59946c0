#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "experiments/pair_runner.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Simulated outcome of one unit of work. It repeats exactly for one seed;
/// sums are kept so several units combine exactly.
struct SimOutcome {
  std::int64_t runs_completed = 0;      // workload runs (or jobs) completed
  double slowdown_sum = 0.0;            // over completed runs
  std::int64_t slowdown_count = 0;
  double inv_speedup_sum = 0.0;         // harmonic mean accumulator
  std::int64_t speedup_count = 0;

  void add(const SimOutcome& other);
  double bounded_slowdown() const;
  double hmean_speedup() const;
};

/// Counts a layer reports from the program's own results or from the
/// traced step, summed over units.
struct LayerCounts {
  std::int64_t steps = 0;        // engine steps or control rounds
  std::int64_t unit_steps = 0;   // steps x units they covered
  std::int64_t cap_unit_writes = 0;
  std::int64_t cap_changes = 0;
  std::int64_t faulted_steps = 0;
  std::int64_t dropped_cap_writes = 0;
  std::int64_t throttle_events = 0;
  std::int64_t requeued = 0;
  std::int64_t abandoned = 0;
  double utilization_sum = 0.0;  // one sample per job stream
  std::int64_t job_streams = 0;
  std::int64_t set_cap_messages = 0;
  std::int64_t keep_cap_messages = 0;
  std::int64_t deadline_misses = 0;
  double critical_path_ns_sum = 0.0;
  std::int64_t critical_path_samples = 0;
  int leaf_jobs = 0;

  void add(const LayerCounts& other);
};

/// One unit of work: a pass over the paper grid, one fleet run, one job
/// stream or one TCP session.
struct UnitResult {
  double setup_s = 0.0;  // building inputs before the first step
  double body_s = 0.0;   // the measured work
  /// A cell is a grid cell on pair_grid and a fixed window of consecutive
  /// steps or rounds elsewhere; a round is one engine step or control round
  /// (on pair_grid, a grid pair's mean step over both managers' cells).
  std::vector<double> cell_ms;
  std::vector<double> round_us;
  /// Digest of each checked item (grid cell, job, ...) and of the whole unit.
  std::vector<std::uint64_t> item_digests;
  std::uint64_t digest = 0;
  SimOutcome sim;
  LayerCounts counts;
  /// Operations checked (grid cells, fleet runs, jobs and ledgers, or
  /// unit-rounds of a session) and how many failed their own checks
  /// (timeouts, lost or late units). Digest mismatches are counted on top.
  int attempted = 0;
  int failed_items = 0;
  std::vector<std::string> problems;
};

enum class Scale { kFull, kSmall };

/// A benchmark workload. Units 0..prefix_units()-1 take distinct inputs
/// derived from the seed; later units repeat them in order, so every unit
/// after the prefix must reproduce its earlier twin exactly.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual int prefix_units() const { return 1; }
  /// Units every run makes, however long they take.
  virtual int min_units() const { return prefix_units(); }
  /// Threads the workload runs on (recorded with the results).
  virtual int threads() const = 0;
  /// Unit `index` through the program's real entry points.
  virtual UnitResult run(int index) = 0;
  /// Unit `index` through the benchmark's traced copies. Its digests must
  /// equal run(index)'s.
  virtual UnitResult run_traced(int index) = 0;
  /// One more timed set-up whose result is discarded, for the median.
  virtual double setup_once() = 0;
};

/// The four workloads: pair_grid, fleet_tree, churn, tcp_loop. Throws
/// std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        Scale scale);
const std::vector<std::string>& workload_names();

// Shared by the workload implementations.
/// Envelope span around a unit's body: time inside it (or inside a grid
/// cell's envelope) but outside every layer span is what the trace leaves
/// uncovered.
extern const SpanName kUnitSpan;
/// Whole DpsManager::decide (or the traced copy's remainder).
extern const SpanName kCoreDecide;
std::unique_ptr<Workload> make_tcp_loop(std::uint64_t seed, Scale scale);
double seconds_since(std::int64_t start_ns);
std::int64_t now_ns();
/// Constant-allocation solo baselines (10 sockets, 110 W each), the
/// denominator of the paper's speedup; runs under an experiments.solo span.
double baseline_hmean(dps::PairRunner& runner, const dps::WorkloadSpec& spec);
dps::ExperimentParams baseline_params(std::uint64_t seed);
/// Pins the calling thread, and the threads it starts afterwards, to
/// `width` of the process's CPUs, a different set on each next(), cycling.
/// On a VM with few vCPUs the vCPUs run at different speeds from one
/// moment to the next (one tcp_loop session ran 24 us rounds on one vCPU
/// and 41 us on another), and waking a thread that sleeps on another vCPU
/// costs microseconds to milliseconds at random. Every workload therefore
/// rotates its units (grid cells on pair_grid) over all CPUs, so each run
/// samples every vCPU, and a multi-threaded unit gets as many CPUs as it
/// has busy threads, so its wakeups stay local. Without this, identical
/// runs ranged 6k-26k rounds/s on tcp_loop and 10.5k-13.9k steps/s on churn.
class CpuRotation {
 public:
  explicit CpuRotation(int width);
  void next();

 private:
  std::vector<int> cpus_;
  int width_;
  std::size_t calls_ = 0;
};

/// Host ms of each run of `width` consecutive steps (a trailing partial
/// window is dropped): the cells of workloads that are one long run.
std::vector<double> window_ms(const std::vector<double>& step_us, std::size_t width);
/// Adds one completed run to `sim`: its slowdown against the workload's
/// nominal (uncapped) duration, bounded below by 1.
void add_run(SimOutcome& sim, const dps::WorkloadSpec& spec, double latency);

}  // namespace perfbench
