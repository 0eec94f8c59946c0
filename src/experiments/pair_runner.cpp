#include "experiments/pair_runner.hpp"

#include <stdexcept>

#include "core/dps_manager.hpp"
#include "managers/constant.hpp"
#include "managers/feedback.hpp"
#include "managers/oracle.hpp"
#include "managers/slurm_stateless.hpp"
#include "metrics/metrics.hpp"
#include "p2p/p2p_manager.hpp"

namespace dps {

const char* to_string(ManagerKind kind) {
  switch (kind) {
    case ManagerKind::kConstant:
      return "constant";
    case ManagerKind::kSlurm:
      return "slurm";
    case ManagerKind::kOracle:
      return "oracle";
    case ManagerKind::kDps:
      return "dps";
    case ManagerKind::kFeedback:
      return "feedback";
    case ManagerKind::kP2p:
      return "p2p";
  }
  return "unknown";
}

bool manager_kind_from_string(std::string_view name, ManagerKind& kind) {
  for (const auto k : {ManagerKind::kConstant, ManagerKind::kSlurm,
                       ManagerKind::kOracle, ManagerKind::kDps,
                       ManagerKind::kFeedback, ManagerKind::kP2p}) {
    if (name == to_string(k)) {
      kind = k;
      return true;
    }
  }
  return false;
}

std::unique_ptr<PowerManager> make_manager(
    ManagerKind kind, const DpsConfig& dps, const MimdConfig& slurm,
    std::function<void(std::span<Watts>)> demand) {
  switch (kind) {
    case ManagerKind::kConstant:
      return std::make_unique<ConstantManager>();
    case ManagerKind::kSlurm:
      return std::make_unique<SlurmStatelessManager>(slurm);
    case ManagerKind::kOracle:
      if (!demand) {
        throw std::invalid_argument(
            "the oracle needs the cluster's true-demand view, which only a "
            "flat simulated pair run has");
      }
      return std::make_unique<OracleManager>(std::move(demand));
    case ManagerKind::kDps:
      return std::make_unique<DpsManager>(dps);
    case ManagerKind::kFeedback:
      return std::make_unique<FeedbackManager>();
    case ManagerKind::kP2p:
      return std::make_unique<P2pManager>();
  }
  throw std::invalid_argument("make_manager: unknown kind");
}

PairRunner::PairRunner(const ExperimentParams& params) : params_(params) {
  if (params_.sockets_per_cluster <= 0 || params_.repeats <= 0) {
    throw std::invalid_argument("ExperimentParams: invalid counts");
  }
}

namespace {

/// Generous stop bound: enough time for `repeats` runs of the slower
/// workload at worst-case slowdown, plus warmup slack.
Seconds time_bound(const WorkloadSpec& a, const WorkloadSpec& b,
                   int repeats) {
  const Seconds longer =
      std::max(a.nominal_duration() + a.inter_run_gap,
               b.nominal_duration() + b.inter_run_gap);
  return 200.0 + 4.0 * longer * repeats;
}

/// FNV-1a over the workload name. Group seeds derive from the *workload*,
/// not from its pair position, so a workload's jittered run sequence is
/// identical in its solo constant baseline and in every paired run — the
/// constant manager then reproduces the baseline latencies exactly and
/// speedups are free of cross-seeding noise.
std::uint64_t name_seed(const std::string& name, std::uint64_t base) {
  std::uint64_t h = 14695981039346656037ULL ^ base;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

PairOutcome PairRunner::run_pair(const WorkloadSpec& a, const WorkloadSpec& b,
                                 ManagerKind kind) {
  std::vector<GroupSpec> groups;
  groups.push_back(GroupSpec{a, params_.sockets_per_cluster,
                             name_seed(a.name, params_.seed)});
  // Same-name pairs (e.g. GMM vs GMM) get a salted seed on one side so the
  // two clusters do not run in jitter lockstep.
  std::uint64_t seed_b = name_seed(b.name, params_.seed);
  if (a.name == b.name) seed_b ^= 0x9e3779b97f4a7c15ULL;
  groups.push_back(GroupSpec{b, params_.sockets_per_cluster, seed_b});
  Cluster cluster(std::move(groups));

  RaplSimConfig rapl_config;
  rapl_config.noise_seed = params_.seed * 977 + 13;
  SimulatedRapl rapl(cluster.total_units(), rapl_config);

  EngineConfig engine_config;
  engine_config.dt = params_.dt;
  engine_config.total_budget =
      params_.budget_per_socket * cluster.total_units();
  engine_config.target_completions = params_.repeats;
  engine_config.max_time = time_bound(a, b, params_.repeats);
  engine_config.obs = params_.obs;
  engine_config.thermal = params_.thermal;

  const auto manager = make_manager(
      kind, params_.dps, params_.slurm,
      [&cluster](std::span<Watts> out) { cluster.true_demands(out); });
  const auto result =
      SimulationEngine(engine_config).run(cluster, rapl, *manager);

  auto outcome_of = [&](int g, const WorkloadSpec& spec) {
    WorkloadOutcome out;
    out.name = spec.name;
    for (const auto& c : result.completions[static_cast<std::size_t>(g)]) {
      out.latencies.push_back(c.latency());
    }
    if (out.latencies.empty()) {
      throw std::runtime_error("pair run finished zero completions of " +
                               spec.name + " — raise max_time");
    }
    out.hmean_latency = hmean_latency(out.latencies);
    out.mean_power = result.group_mean_power[static_cast<std::size_t>(g)];
    out.satisfaction =
        satisfaction(out.mean_power, uncapped(spec).mean_power);
    out.speedup = speedup(baseline(spec).hmean, out.hmean_latency);
    return out;
  };

  PairOutcome outcome;
  outcome.manager = kind;
  outcome.a = outcome_of(0, a);
  outcome.b = outcome_of(1, b);
  outcome.fairness = fairness(outcome.a.satisfaction, outcome.b.satisfaction);
  outcome.pair_hmean = pair_hmean(outcome.a.speedup, outcome.b.speedup);
  outcome.peak_cap_sum = result.peak_cap_sum;
  outcome.simulated_time = result.elapsed;
  outcome.steps = result.steps;
  outcome.thermal_throttle_events = result.thermal_throttle_events;
  outcome.thermal_shed_ws = result.thermal_shed_ws;
  outcome.peak_temperature_c = result.peak_temperature_c;
  return outcome;
}

PairRunner::SoloStats PairRunner::solo_run(const WorkloadSpec& spec,
                                           Watts cap_per_socket) {
  std::vector<GroupSpec> groups;
  groups.push_back(GroupSpec{spec, params_.sockets_per_cluster,
                             name_seed(spec.name, params_.seed)});
  Cluster cluster(std::move(groups));

  // Solo characterization runs measure the workload, not the manager, so
  // measurement noise is disabled for repeatability.
  RaplSimConfig rapl_config;
  rapl_config.noise_fraction = 0.0;
  SimulatedRapl rapl(cluster.total_units(), rapl_config);

  EngineConfig engine_config;
  engine_config.dt = params_.dt;
  engine_config.total_budget = cap_per_socket * cluster.total_units();
  engine_config.target_completions = params_.repeats;
  engine_config.max_time =
      200.0 + 4.0 * (spec.nominal_duration() + spec.inter_run_gap) *
                  params_.repeats;
  engine_config.obs = params_.obs;

  ConstantManager constant;
  const auto result =
      SimulationEngine(engine_config).run(cluster, rapl, constant);

  std::vector<double> latencies;
  for (const auto& c : result.completions[0]) {
    latencies.push_back(c.latency());
  }
  if (latencies.empty()) {
    throw std::runtime_error("solo run finished zero completions of " +
                             spec.name);
  }
  SoloStats stats;
  stats.hmean = hmean_latency(latencies);
  stats.mean_power = result.group_mean_power[0];
  return stats;
}

const PairRunner::SoloStats& PairRunner::cached_solo(
    SoloCache& cache, const WorkloadSpec& spec, Watts cap_per_socket) {
  SoloCacheEntry* entry;
  {
    // Registration is cheap and serialized; the simulation below is not
    // and runs outside the lock, guarded per-entry by its once-flag.
    std::lock_guard<std::mutex> lock(cache_mu_);
    entry = cache.try_emplace(spec.name, std::make_unique<SoloCacheEntry>())
                .first->second.get();
  }
  std::call_once(entry->once,
                 [&] { entry->stats = solo_run(spec, cap_per_socket); });
  return entry->stats;
}

const PairRunner::SoloStats& PairRunner::baseline(const WorkloadSpec& spec) {
  return cached_solo(baseline_cache_, spec, params_.budget_per_socket);
}

const PairRunner::SoloStats& PairRunner::uncapped(const WorkloadSpec& spec) {
  // Caps at TDP never bind, so this measures raw demand.
  return cached_solo(uncapped_cache_, spec, RaplSimConfig{}.tdp);
}

double PairRunner::baseline_hmean(const WorkloadSpec& spec) {
  return baseline(spec).hmean;
}

Watts PairRunner::uncapped_mean_power(const WorkloadSpec& spec) {
  return uncapped(spec).mean_power;
}

}  // namespace dps
