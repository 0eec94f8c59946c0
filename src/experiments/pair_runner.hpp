#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/dps_config.hpp"
#include "obs/sink.hpp"
#include "sim/engine.hpp"
#include "workloads/spec.hpp"

namespace dps {

/// The four power managers the paper evaluates, plus the feedback-shifter
/// extension baseline (PShifter-style, see managers/feedback.hpp) and the
/// decentralized peer-to-peer manager (src/p2p/).
enum class ManagerKind { kConstant, kSlurm, kOracle, kDps, kFeedback, kP2p };

const char* to_string(ManagerKind kind);

/// Sets `kind` to the manager `name` names (to_string's inverse); false
/// when no manager has that name.
bool manager_kind_from_string(std::string_view name, ManagerKind& kind);

/// A fresh manager of `kind`, the one place managers are built by kind:
/// DPS from `dps` (the [dps] section), SLURM from `slurm` (the [stateless]
/// section over slurm_plugin_defaults()), and the oracle over `demand`,
/// the simulated cluster's true-demand view. Throws std::invalid_argument
/// for the oracle without one: a job stream, a tree leaf and a live
/// daemon have none.
std::unique_ptr<PowerManager> make_manager(
    ManagerKind kind, const DpsConfig& dps = {},
    const MimdConfig& slurm = slurm_plugin_defaults(),
    std::function<void(std::span<Watts>)> demand = {});

/// Common parameters of a simulated experiment, defaulting to the paper's
/// setup: two 10-socket clusters, 1 s decision loop, 110 W per socket of
/// cluster-wide budget (66.7 % of the 165 W TDP).
struct ExperimentParams {
  int sockets_per_cluster = 10;
  Watts budget_per_socket = 110.0;
  Seconds dt = 1.0;
  /// Minimum completed runs per workload in a pair. The paper repeats each
  /// Spark workload at least 10 times; this library default (3) is what
  /// tests and direct API callers get. The bench binaries do NOT use it:
  /// they all take the DPS_REPEATS env knob, whose default is 2 to keep
  /// smoke runs quick (see bench/bench_common.hpp and the README knob
  /// table — one story, three places).
  int repeats = 3;
  std::uint64_t seed = 42;
  /// DPS tunables (also used for ablations).
  DpsConfig dps;
  /// SLURM baseline tunables (the plugin's documented PowerParameters).
  MimdConfig slurm = slurm_plugin_defaults();
  /// Observability sink handed to every engine run this runner launches.
  /// Observer is thread-safe (atomic counters, mutexed event ring), so one
  /// enabled sink may be shared by a whole parallel sweep.
  obs::ObsSink obs;
  /// Optional thermal coupling (src/thermal/). Applied to *paired* runs
  /// only: the solo baselines stay thermal-free so the satisfaction and
  /// speedup denominators keep measuring raw demand, and a sweep varying
  /// the trip point compares managers against one fixed yardstick.
  std::optional<ThermalConfig> thermal;
};

/// Per-workload outcome within one pair run.
struct WorkloadOutcome {
  std::string name;
  std::vector<double> latencies;
  double hmean_latency = 0.0;
  Watts mean_power = 0.0;    // per-socket, active portions only
  double satisfaction = 0.0; // Equation 1, vs the uncapped solo run
  double speedup = 0.0;      // vs the constant-allocation solo baseline
};

/// Outcome of co-running two workloads under one manager.
struct PairOutcome {
  ManagerKind manager;
  WorkloadOutcome a;
  WorkloadOutcome b;
  double fairness = 0.0;   // Equation 2 between the two clusters
  double pair_hmean = 0.0; // harmonic mean of the two speedups
  Watts peak_cap_sum = 0.0;
  Seconds simulated_time = 0.0;
  /// Decision-loop steps the engine executed for this pair run (the unit
  /// the perf-smoke harness rates sweep throughput in).
  int steps = 0;
  /// Thermal governor ledger (zero unless ExperimentParams::thermal).
  int thermal_throttle_events = 0;
  Joules thermal_shed_ws = 0.0;
  Celsius peak_temperature_c = 0.0;
};

/// Runs workload pairs under any of the four managers and computes the
/// paper's metrics against memoized solo baselines:
///   - constant-allocation solo latency (the speedup denominator), and
///   - uncapped solo mean power (the satisfaction denominator).
/// One PairRunner should be reused across a sweep so the baselines are
/// computed once per workload.
///
/// Thread safety: run_pair and the baseline accessors may be called from
/// any number of sweep threads concurrently. Each call builds its own
/// cluster/RAPL/manager, and the solo-baseline caches are compute-once
/// (per-entry std::call_once behind a registration mutex), so a given
/// workload's baseline is simulated exactly once no matter how many tasks
/// race for it — and its value never depends on the winner.
class PairRunner {
 public:
  explicit PairRunner(const ExperimentParams& params = {});

  /// Co-runs `a` and `b` on the two clusters under `kind`.
  PairOutcome run_pair(const WorkloadSpec& a, const WorkloadSpec& b,
                       ManagerKind kind);

  /// Solo run under constant allocation; returns the harmonic-mean latency.
  double baseline_hmean(const WorkloadSpec& spec);

  /// Solo run with caps at TDP; returns the mean per-socket active power.
  Watts uncapped_mean_power(const WorkloadSpec& spec);

  const ExperimentParams& params() const { return params_; }

 private:
  struct SoloStats {
    double hmean = 0.0;
    Watts mean_power = 0.0;
  };

  /// One memoized solo run. The once-flag makes the compute phase happen
  /// outside the cache mutex (concurrent misses on *different* workloads
  /// simulate in parallel) while still running it exactly once per entry.
  struct SoloCacheEntry {
    std::once_flag once;
    SoloStats stats;
  };
  using SoloCache = std::map<std::string, std::unique_ptr<SoloCacheEntry>>;

  SoloStats solo_run(const WorkloadSpec& spec, Watts cap_per_socket);
  const SoloStats& cached_solo(SoloCache& cache, const WorkloadSpec& spec,
                               Watts cap_per_socket);
  const SoloStats& baseline(const WorkloadSpec& spec);
  const SoloStats& uncapped(const WorkloadSpec& spec);

  ExperimentParams params_;
  std::mutex cache_mu_;
  SoloCache baseline_cache_;
  SoloCache uncapped_cache_;
};

}  // namespace dps
