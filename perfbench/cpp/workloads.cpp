#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/dps_manager.hpp"
#include "ctrl/tree.hpp"
#include "experiments/registry.hpp"
#include "faults/fault_plan.hpp"
#include "managers/slurm_stateless.hpp"
#include "metrics/metrics.hpp"
#include "sched/arrivals.hpp"
#include "sim/engine.hpp"
#include "stats.hpp"
#include "traced_dps.hpp"
#include "traced_engine.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "workloads/npb_suite.hpp"
#include "workloads/spark_suite.hpp"

namespace perfbench {

const SpanName kUnitSpan("bench.unit");
const SpanName kCoreDecide("core.decide");

namespace {

const SpanName kCellSpan("bench.cell");
const SpanName kSoloSpan("experiments.solo");
const SpanName kSlurmSpan("managers.slurm");
const SpanName kCtrlDecide("ctrl.decide");
const SpanName kCtrlLeaf("ctrl.leaf");
const SpanName kCtrlRoot("ctrl.root");

constexpr dps::Watts kBudgetPerSocket = 110.0;

void add_steps(LayerCounts& counts, const dps::EngineResult& result, int units) {
  counts.steps += result.steps;
  counts.unit_steps += static_cast<std::int64_t>(result.steps) * units;
}

/// Final caps as the hardware holds them after the run.
void digest_caps(Digest& d, const dps::SimulatedRapl& rapl) {
  for (int u = 0; u < rapl.num_units(); ++u) d.add(rapl.cap(u));
}

// ---------------------------------------------------------------- pair_grid

/// Copy of PairRunner::run_pair's private group seeding (FNV-1a over the
/// workload name), so the traced copy builds the same clusters.
std::uint64_t name_seed(const std::string& name, std::uint64_t base) {
  std::uint64_t h = 14695981039346656037ULL ^ base;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// The Fig. 6 grid: mid/high Spark x NPB x {slurm, dps} at the paper's 10
/// repeats, on one sweep worker, with a fresh PairRunner per pass so the
/// solo baselines are paid inside the cells as users pay them.
class PairGrid final : public Workload {
 public:
  PairGrid(std::uint64_t seed, Scale scale) : seed_(seed) {
    if (scale == Scale::kFull) {
      spark_ = dps::spark_mid_high_names();
      npb_ = dps::npb_names();
      repeats_ = 10;
      best_of_ = 3;
    } else {
      spark_ = {"Kmeans", "LR"};
      npb_ = {"EP", "FT"};
      repeats_ = 2;
    }
  }

  /// The grid pairs cost about the same per step, so a pass's round p99
  /// (its slowest pair) and its cell tail measured mostly which cells a
  /// slow phase of the host hit: one cell's two runs ten seconds apart
  /// differed by up to 1.6x. Every run therefore makes passes in threes,
  /// each pass one CPU further on than the last, and the third reports
  /// each cell at the fastest of its three runs; the first two report no
  /// timing samples.
  int min_units() const override { return best_of_; }
  int threads() const override { return 1; }

  UnitResult run(int index) override { return pass(index, false); }
  UnitResult run_traced(int index) override { return pass(index, true); }

  double setup_once() override {
    cpus_.next();
    const auto start = now_ns();
    const Setup setup = build();
    return seconds_since(start);
  }

 private:
  struct Setup {
    std::vector<dps::WorkloadSpec> spark, npb;
    std::unique_ptr<dps::PairRunner> runner;
  };

  Setup build() const {
    Setup s;
    for (const auto& name : spark_) s.spark.push_back(dps::spark_workload(name));
    for (const auto& name : npb_) s.npb.push_back(dps::npb_workload(name));
    dps::ExperimentParams params;
    params.repeats = repeats_;
    params.seed = seed_;
    s.runner = std::make_unique<dps::PairRunner>(params);
    return s;
  }

  /// Host time of one grid cell: the whole cell, and its paired steps
  /// without the solo baselines the cell paid for. A failed cell has no
  /// steps.
  struct CellTime {
    double total_s = 0.0;
    double paired_s = 0.0;
    std::int64_t steps = 0;
  };

  UnitResult pass(int index, bool traced) {
    UnitResult unit;
    auto start = now_ns();
    Setup setup = build();
    unit.setup_s = seconds_since(start);
    const bool fold = best_of_ > 1 && !traced;
    if (fold && index % best_of_ > 0) cpus_.next();
    std::vector<CellTime> cells;
    Digest whole;
    start = now_ns();
    {
      ScopedSpan envelope(kUnitSpan);
      for (const auto& a : setup.spark) {
        for (const auto& b : setup.npb) {
          for (const auto kind : {dps::ManagerKind::kSlurm, dps::ManagerKind::kDps}) {
            run_cell(unit, cells, *setup.runner, a, b, kind, traced, whole);
          }
        }
      }
    }
    unit.body_s = seconds_since(start);
    unit.digest = whole.value();
    unit.attempted = static_cast<int>(unit.item_digests.size());
    if (fold) {
      // Every pass builds the same cells in the same order.
      if (index % best_of_ == 0) best_ = cells;
      for (std::size_t k = 0; k < cells.size(); ++k) {
        CellTime& best = best_[k];
        best.total_s = std::min(best.total_s, cells[k].total_s);
        best.paired_s = std::min(best.paired_s, cells[k].paired_s);
        if (best.steps != cells[k].steps) best.steps = 0;
      }
      if (index % best_of_ < best_of_ - 1) return unit;
      cells = best_;
      unit.body_s = 0.0;
      for (const CellTime& cell : cells) unit.body_s += cell.total_s;
    }
    add_samples(unit, cells);
    return unit;
  }

  /// Each cell's time, and each grid pair's mean paired step. Per-step cost
  /// differs by manager (DPS's priority stage dominates), so a round pools
  /// the pair's SLURM and DPS cells; per-cell rounds would split into two
  /// modes with the median between them.
  static void add_samples(UnitResult& unit, const std::vector<CellTime>& cells) {
    for (std::size_t k = 0; k < cells.size(); ++k) {
      const CellTime& cell = cells[k];
      if (cell.steps == 0) continue;
      unit.cell_ms.push_back(cell.total_s * 1e3);
      if (k % 2 == 1 && cells[k - 1].steps > 0) {
        const CellTime& slurm = cells[k - 1];
        unit.round_us.push_back((slurm.paired_s + cell.paired_s) * 1e6 /
                                static_cast<double>(slurm.steps + cell.steps));
      }
    }
  }

  void run_cell(UnitResult& unit, std::vector<CellTime>& cells, dps::PairRunner& runner,
                const dps::WorkloadSpec& a, const dps::WorkloadSpec& b, dps::ManagerKind kind,
                bool traced, Digest& whole) {
    dps::PairOutcome out;
    cpus_.next();
    const auto start = now_ns();
    std::int64_t paired_start = start;
    try {
      // The solo baselines the cell needs, paid by the first cell that
      // needs them as run_pair would pay them, but outside the paired
      // steps' timing so one grid pair's round is not inflated by them.
      for (const auto* spec : {&a, &b}) {
        ScopedSpan solo(kSoloSpan);
        runner.baseline_hmean(*spec);
        runner.uncapped_mean_power(*spec);
      }
      paired_start = now_ns();
      if (traced) {
        ScopedSpan cell(kCellSpan);
        out = traced_pair(runner, a, b, kind, unit.counts);
      } else {
        out = runner.run_pair(a, b, kind);
      }
    } catch (const std::exception& e) {
      ++unit.failed_items;
      unit.problems.push_back(a.name + "/" + b.name + ": " + e.what());
      unit.item_digests.push_back(0);
      cells.push_back({seconds_since(start), 0.0, 0});
      return;
    }
    cells.push_back({seconds_since(start), seconds_since(paired_start), out.steps});
    if (!traced) {
      unit.counts.steps += out.steps;
      unit.counts.unit_steps += static_cast<std::int64_t>(out.steps) * 2 *
                                runner.params().sockets_per_cluster;
    }
    // The row bench/fig6_spark_npb writes for this cell.
    const std::string row = a.name + "," + b.name + "," + dps::to_string(kind) + "," +
                            dps::format_double(out.a.speedup, 4) + "," +
                            dps::format_double(out.b.speedup, 4) + "," +
                            dps::format_double(out.pair_hmean, 4) + "," +
                            dps::format_double(out.fairness, 4);
    Digest item;
    item.add(row);
    item.add(out.steps);
    unit.item_digests.push_back(item.value());
    whole.add(item.value());

    unit.sim.runs_completed +=
        static_cast<std::int64_t>(out.a.latencies.size() + out.b.latencies.size());
    for (const double l : out.a.latencies) add_run(unit.sim, a, l);
    for (const double l : out.b.latencies) add_run(unit.sim, b, l);
    if (kind == dps::ManagerKind::kDps) {
      unit.sim.inv_speedup_sum += 1.0 / out.pair_hmean;
      ++unit.sim.speedup_count;
    }
  }

  /// Copy of PairRunner::run_pair on the traced engine, with the traced
  /// DPS pipeline or a timed SLURM manager.
  dps::PairOutcome traced_pair(dps::PairRunner& runner, const dps::WorkloadSpec& a,
                               const dps::WorkloadSpec& b, dps::ManagerKind kind,
                               LayerCounts& counts) const {
    const auto& params = runner.params();
    std::vector<dps::GroupSpec> groups;
    groups.push_back(dps::GroupSpec{a, params.sockets_per_cluster, name_seed(a.name, params.seed)});
    std::uint64_t seed_b = name_seed(b.name, params.seed);
    if (a.name == b.name) seed_b ^= 0x9e3779b97f4a7c15ULL;
    groups.push_back(dps::GroupSpec{b, params.sockets_per_cluster, seed_b});
    dps::Cluster cluster(std::move(groups));
    dps::RaplSimConfig rapl_config;
    rapl_config.noise_seed = params.seed * 977 + 13;
    dps::SimulatedRapl rapl(cluster.total_units(), rapl_config);

    dps::EngineConfig config;
    config.dt = params.dt;
    config.total_budget = params.budget_per_socket * cluster.total_units();
    config.target_completions = params.repeats;
    const dps::Seconds longer = std::max(a.nominal_duration() + a.inter_run_gap,
                                         b.nominal_duration() + b.inter_run_gap);
    config.max_time = 200.0 + 4.0 * longer * params.repeats;
    config.thermal = params.thermal;

    std::unique_ptr<dps::PowerManager> manager;
    if (kind == dps::ManagerKind::kDps) {
      manager = std::make_unique<TracedDps>(params.dps, kCoreDecide);
    } else if (kind == dps::ManagerKind::kSlurm) {
      manager = std::make_unique<TimedManager>(
          std::make_unique<dps::SlurmStatelessManager>(params.slurm), kSlurmSpan);
    } else {
      throw std::invalid_argument("pair_grid: only slurm and dps cells are traced");
    }
    ActuationCounts act;
    const auto result = traced_run(config, cluster, rapl, *manager, act);
    counts.cap_unit_writes += act.unit_writes;
    counts.cap_changes += act.changed;
    add_steps(counts, result, cluster.total_units());

    auto outcome_of = [&](int g, const dps::WorkloadSpec& spec) {
      dps::WorkloadOutcome out;
      out.name = spec.name;
      for (const auto& c : result.completions[static_cast<std::size_t>(g)]) {
        out.latencies.push_back(c.latency());
      }
      if (out.latencies.empty()) {
        throw std::runtime_error("pair run finished zero completions of " + spec.name);
      }
      out.hmean_latency = dps::hmean_latency(out.latencies);
      out.mean_power = result.group_mean_power[static_cast<std::size_t>(g)];
      out.satisfaction = dps::satisfaction(out.mean_power, runner.uncapped_mean_power(spec));
      out.speedup = dps::speedup(runner.baseline_hmean(spec), out.hmean_latency);
      return out;
    };
    dps::PairOutcome outcome;
    outcome.manager = kind;
    outcome.a = outcome_of(0, a);
    outcome.b = outcome_of(1, b);
    outcome.fairness = dps::fairness(outcome.a.satisfaction, outcome.b.satisfaction);
    outcome.pair_hmean = dps::pair_hmean(outcome.a.speedup, outcome.b.speedup);
    outcome.peak_cap_sum = result.peak_cap_sum;
    outcome.simulated_time = result.elapsed;
    outcome.steps = result.steps;
    return outcome;
  }

  std::uint64_t seed_;
  std::vector<std::string> spark_, npb_;
  int repeats_ = 10;
  int best_of_ = 1;  // runs of each cell behind one timing sample
  CpuRotation cpus_{1};
  std::vector<CellTime> best_;
};

// --------------------------------------------------------------- fleet_tree

/// Timing decorator for the tree itself: the ctrl.decide span plus the
/// tree's own critical-path model of each round.
class TracedTree final : public dps::PowerManager {
 public:
  TracedTree(dps::TreeController& tree, LayerCounts& counts) : tree_(tree), counts_(counts) {}
  std::string_view name() const override { return tree_.name(); }
  void reset(const dps::ManagerContext& ctx) override { tree_.reset(ctx); }
  void decide(std::span<const dps::Watts> power, std::span<dps::Watts> caps) override {
    {
      ScopedSpan s(kCtrlDecide);
      tree_.decide(power, caps);
    }
    counts_.critical_path_ns_sum += static_cast<double>(tree_.last_critical_path_ns());
    ++counts_.critical_path_samples;
  }
  void update_budget(dps::Watts budget) override { tree_.update_budget(budget); }

 private:
  dps::TreeController& tree_;
  LayerCounts& counts_;
};

/// 100k units as 5,000 groups of 20 sockets cycling the 19 registry
/// workloads, under a DPS TreeController (shard 32, DPS leaves and tiers)
/// whose leaves run on a 2-thread pool, for a fixed number of steps.
class FleetTree final : public Workload {
 public:
  FleetTree(std::uint64_t seed, Scale scale)
      : seed_(seed),
        groups_(scale == Scale::kFull ? 5000 : 100),
        steps_(scale == Scale::kFull ? 64 : 48),
        cpus_(kLeafJobs),
        baselines_(baseline_params(seed)) {
    for (const auto& name : dps::all_workload_names()) specs_.push_back(dps::workload_by_name(name));
  }

  int threads() const override { return kLeafJobs + 1; }
  UnitResult run(int index) override { return fleet(index, false); }
  UnitResult run_traced(int index) override { return fleet(index, true); }

  double setup_once() override {
    cpus_.next();
    const auto start = now_ns();
    const Setup setup = build(0, false);
    return seconds_since(start);
  }

 private:
  static constexpr int kLeafJobs = 2;
  static constexpr std::size_t kStepsPerCell = 16;

  struct Setup {
    std::unique_ptr<dps::Cluster> cluster;
    std::unique_ptr<dps::SimulatedRapl> rapl;
    std::unique_ptr<dps::TreeController> tree;
    dps::EngineConfig config;
  };

  Setup build(int index, bool traced) const {
    const std::uint64_t seed =
        dps::mix_seed(seed_, static_cast<std::uint64_t>(index % prefix_units()));
    Setup s;
    std::vector<dps::GroupSpec> groups;
    groups.reserve(static_cast<std::size_t>(groups_));
    for (int g = 0; g < groups_; ++g) {
      groups.emplace_back(specs_[static_cast<std::size_t>(g) % specs_.size()], 20,
                          dps::mix_seed(seed, static_cast<std::uint64_t>(g)));
    }
    s.cluster = std::make_unique<dps::Cluster>(std::move(groups));
    dps::RaplSimConfig rapl_config;
    rapl_config.noise_seed = dps::mix_seed(seed, 0x7261706cULL);
    s.rapl = std::make_unique<dps::SimulatedRapl>(s.cluster->total_units(), rapl_config);
    dps::CtrlConfig ctrl;
    ctrl.shard_size = 32;
    ctrl.leaf_jobs = kLeafJobs;
    if (traced) {
      s.tree = std::make_unique<dps::TreeController>(
          ctrl,
          [] {
            return std::make_unique<TimedManager>(std::make_unique<dps::DpsManager>(), kCtrlLeaf,
                                                  /*inherit_main=*/true);
          },
          [] { return std::make_unique<TimedManager>(std::make_unique<dps::DpsManager>(), kCtrlRoot); });
    } else {
      s.tree = std::make_unique<dps::TreeController>(ctrl);
    }
    s.config.total_budget = kBudgetPerSocket * s.cluster->total_units();
    // A step horizon, not a completion target: every group would need its
    // longest workload (EP, ~4,800 s) to finish once.
    s.config.target_completions = 1 << 30;
    s.config.max_time = steps_ * s.config.dt;
    return s;
  }

  UnitResult fleet(int index, bool traced) {
    cpus_.next();  // before the tree's pool threads exist: they inherit it
    UnitResult unit;
    auto start = now_ns();
    Setup s = build(index, traced);
    unit.setup_s = seconds_since(start);
    const int n = s.cluster->total_units();
    dps::EngineResult result;
    if (traced) {
      TracedTree manager(*s.tree, unit.counts);
      ActuationCounts act;
      start = now_ns();
      {
        ScopedSpan envelope(kUnitSpan);
        result = traced_run(s.config, *s.cluster, *s.rapl, manager, act);
      }
      unit.body_s = seconds_since(start);
      unit.counts.cap_unit_writes += act.unit_writes;
      unit.counts.cap_changes += act.changed;
    } else {
      StepTimer timer(*s.tree);
      start = now_ns();
      result = dps::SimulationEngine(s.config).run(*s.cluster, *s.rapl, timer);
      unit.body_s = seconds_since(start);
      unit.round_us = timer.step_us();
      unit.cell_ms = window_ms(unit.round_us, kStepsPerCell);
    }
    add_steps(unit.counts, result, n);
    unit.counts.leaf_jobs = kLeafJobs;
    if (result.steps != steps_) {
      ++unit.failed_items;
      unit.problems.push_back("fleet ran " + std::to_string(result.steps) + " steps, expected " +
                              std::to_string(steps_));
    }

    Digest d;
    d.add(result.steps);
    for (std::size_t g = 0; g < result.completions.size(); ++g) {
      const auto& spec = specs_[g % specs_.size()];
      std::vector<double> latencies;
      for (const auto& c : result.completions[g]) {
        d.add(c.start);
        d.add(c.end);
        d.add(c.workload_index);
        latencies.push_back(c.latency());
        add_run(unit.sim, spec, c.latency());
      }
      unit.sim.runs_completed += static_cast<std::int64_t>(latencies.size());
      if (!latencies.empty()) {
        unit.sim.inv_speedup_sum +=
            dps::hmean_latency(latencies) / baseline_hmean(baselines_, spec);
        ++unit.sim.speedup_count;
      }
    }
    digest_caps(d, *s.rapl);
    unit.digest = d.value();
    unit.item_digests.push_back(unit.digest);
    unit.attempted = 1;
    return unit;
  }

  std::uint64_t seed_;
  int groups_;
  int steps_;
  std::vector<dps::WorkloadSpec> specs_;
  CpuRotation cpus_;
  dps::PairRunner baselines_;
};

// -------------------------------------------------------------------- churn

/// Job-stream mode on 256 units: Poisson arrivals of 2-32-unit jobs from an
/// 8-workload Spark/NPB mix, placed by power-aware backfill under DPS, with
/// all seven simulated fault kinds at half of ext_faults' rates and the
/// thermal governor on.
class Churn final : public Workload {
 public:
  Churn(std::uint64_t seed, Scale scale)
      : seed_(seed),
        units_(scale == Scale::kFull ? 256 : 64),
        jobs_(scale == Scale::kFull ? 200 : 20),
        prefix_(scale == Scale::kFull ? 8 : 1),
        baselines_(baseline_params(seed)) {}

  int prefix_units() const override { return prefix_; }
  int threads() const override { return 1; }
  UnitResult run(int index) override { return stream(index, false); }
  UnitResult run_traced(int index) override { return stream(index, true); }

  double setup_once() override {
    cpus_.next();
    const auto start = now_ns();
    const Setup setup = build(0);
    return seconds_since(start);
  }

 private:
  struct Setup {
    std::vector<dps::sched::JobArrival> arrivals;
    std::unique_ptr<dps::Cluster> cluster;
    std::unique_ptr<dps::SimulatedRapl> rapl;
    dps::EngineConfig config;
  };

  Setup build(int index) const {
    const std::uint64_t seed =
        dps::mix_seed(seed_, static_cast<std::uint64_t>(index % prefix_));
    Setup s;
    dps::sched::PoissonArrivalConfig poisson;
    poisson.seed = seed;
    poisson.rate_per_1000s = 16.0 * units_ / 256.0;
    poisson.count = jobs_;
    poisson.workloads = {"Bayes", "RF", "LR", "Linear", "FT", "MG", "IS", "CG"};
    poisson.min_units = 2;
    poisson.max_units = 32;
    s.arrivals = dps::sched::ArrivalStream::poisson(poisson).records();

    dps::sched::JobScheduleConfig jobs;
    jobs.policy = dps::sched::SchedPolicy::kPowerAware;
    jobs.trace = s.arrivals;
    jobs.seed = seed;
    jobs.resolve = dps::workload_by_name;

    // Half of ext_faults' per-cluster rates (events per 1000 s), plus the
    // two thermal kinds, so faults are active on about a quarter of steps.
    dps::FaultPlanConfig faults;
    faults.seed = dps::mix_seed(seed, 0x6661756cULL);
    faults.horizon = kMaxTime;
    faults.crash_rate = 0.6;
    faults.sensor_dropout_rate = 0.4;
    faults.sensor_garbage_rate = 0.4;
    faults.cap_stuck_rate = 0.4;
    faults.budget_sag_rate = 0.2;
    faults.fan_degrade_rate = 0.4;
    faults.temp_stuck_rate = 0.2;

    s.cluster = std::make_unique<dps::Cluster>(units_);
    dps::RaplSimConfig rapl_config;
    rapl_config.noise_seed = dps::mix_seed(seed, 0x7261706cULL);
    s.rapl = std::make_unique<dps::SimulatedRapl>(units_, rapl_config);
    s.config.total_budget = kBudgetPerSocket * units_;
    s.config.max_time = kMaxTime;
    s.config.job_schedule = std::move(jobs);
    s.config.fault_plan =
        std::make_shared<dps::FaultPlan>(dps::FaultPlan::generate(faults, units_));
    dps::ThermalConfig thermal;
    thermal.seed = seed;
    s.config.thermal = thermal;
    return s;
  }

  UnitResult stream(int index, bool traced) {
    cpus_.next();
    UnitResult unit;
    auto start = now_ns();
    Setup s = build(index);
    unit.setup_s = seconds_since(start);
    dps::EngineResult result;
    if (traced) {
      TracedDps manager(dps::DpsConfig{}, kCoreDecide);
      ActuationCounts act;
      start = now_ns();
      {
        ScopedSpan envelope(kUnitSpan);
        result = traced_run(s.config, *s.cluster, *s.rapl, manager, act);
      }
      unit.body_s = seconds_since(start);
      unit.counts.cap_unit_writes += act.unit_writes;
      unit.counts.cap_changes += act.changed;
    } else {
      dps::DpsManager dps_manager;
      StepTimer timer(dps_manager);
      start = now_ns();
      result = dps::SimulationEngine(s.config).run(*s.cluster, *s.rapl, timer);
      unit.body_s = seconds_since(start);
      unit.round_us = timer.step_us();
      unit.cell_ms = window_ms(unit.round_us, kStepsPerCell);
    }
    add_steps(unit.counts, result, units_);
    unit.counts.faulted_steps += std::llround(result.faulted_time / s.config.dt);
    unit.counts.dropped_cap_writes += static_cast<std::int64_t>(result.dropped_cap_writes);
    unit.counts.throttle_events += result.thermal_throttle_events;
    unit.counts.requeued += result.sched.requeued;
    unit.counts.abandoned += result.sched.abandoned;
    unit.counts.utilization_sum += result.sched.mean_utilization;
    ++unit.counts.job_streams;

    Digest whole;
    for (const auto& job : result.job_outcomes) {
      Digest item;
      item.add(job.id);
      item.add(job.submit);
      item.add(job.start);
      item.add(job.end);
      item.add(job.granted_units);
      item.add(job.retries);
      unit.item_digests.push_back(item.value());
      whole.add(item.value());
      const auto& spec = dps::workload_by_name(
          s.arrivals.at(static_cast<std::size_t>(job.id)).workload);
      unit.sim.inv_speedup_sum += (job.end - job.start) / baseline_hmean(baselines_, spec);
      ++unit.sim.speedup_count;
    }
    // Resilience, thermal and scheduler ledgers, and the final caps.
    Digest ledgers;
    ledgers.add(result.steps);
    ledgers.add(result.faults_injected);
    ledgers.add(result.faulted_time);
    ledgers.add(result.faulted_overshoot_ws);
    for (const double t : result.fault_recovery_times) ledgers.add(t);
    ledgers.add(static_cast<std::uint64_t>(result.dropped_cap_writes));
    ledgers.add(result.thermal_throttle_events);
    ledgers.add(result.thermal_shed_ws);
    for (const double t : result.thermal_time_over_trip) ledgers.add(t);
    ledgers.add(result.peak_temperature_c);
    ledgers.add(result.sched.completed);
    ledgers.add(result.sched.requeued);
    ledgers.add(result.sched.abandoned);
    ledgers.add(result.sched.throttle_stalls);
    ledgers.add(result.sched.shrunk);
    digest_caps(ledgers, *s.rapl);
    unit.item_digests.push_back(ledgers.value());
    whole.add(ledgers.value());
    unit.digest = whole.value();
    unit.attempted = static_cast<int>(unit.item_digests.size());

    unit.sim.runs_completed += result.sched.completed;
    unit.sim.slowdown_sum += result.sched.mean_bounded_slowdown * result.sched.completed;
    unit.sim.slowdown_count += result.sched.completed;
    if (result.timed_out) {
      unit.failed_items += static_cast<int>(unit.item_digests.size());
      unit.problems.push_back("job stream timed out");
    }
    return unit;
  }

  static constexpr dps::Seconds kMaxTime = 2.0e6;
  static constexpr std::size_t kStepsPerCell = 1000;
  std::uint64_t seed_;
  int units_;
  int jobs_;
  int prefix_;
  CpuRotation cpus_{1};
  dps::PairRunner baselines_;
};

}  // namespace

// ------------------------------------------------------------------ shared

void SimOutcome::add(const SimOutcome& o) {
  runs_completed += o.runs_completed;
  slowdown_sum += o.slowdown_sum;
  slowdown_count += o.slowdown_count;
  inv_speedup_sum += o.inv_speedup_sum;
  speedup_count += o.speedup_count;
}

double SimOutcome::bounded_slowdown() const {
  return slowdown_count > 0 ? slowdown_sum / static_cast<double>(slowdown_count) : 0.0;
}

double SimOutcome::hmean_speedup() const {
  return inv_speedup_sum > 0.0 ? static_cast<double>(speedup_count) / inv_speedup_sum : 0.0;
}

void LayerCounts::add(const LayerCounts& o) {
  steps += o.steps;
  unit_steps += o.unit_steps;
  cap_unit_writes += o.cap_unit_writes;
  cap_changes += o.cap_changes;
  faulted_steps += o.faulted_steps;
  dropped_cap_writes += o.dropped_cap_writes;
  throttle_events += o.throttle_events;
  requeued += o.requeued;
  abandoned += o.abandoned;
  utilization_sum += o.utilization_sum;
  job_streams += o.job_streams;
  set_cap_messages += o.set_cap_messages;
  keep_cap_messages += o.keep_cap_messages;
  deadline_misses += o.deadline_misses;
  critical_path_ns_sum += o.critical_path_ns_sum;
  critical_path_samples += o.critical_path_samples;
  leaf_jobs = std::max(leaf_jobs, o.leaf_jobs);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

dps::ExperimentParams baseline_params(std::uint64_t seed) {
  dps::ExperimentParams params;
  params.repeats = 3;
  params.seed = seed;
  return params;
}

double baseline_hmean(dps::PairRunner& runner, const dps::WorkloadSpec& spec) {
  ScopedSpan solo(kSoloSpan);
  return runner.baseline_hmean(spec);
}

CpuRotation::CpuRotation(int width) : width_(width) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    }
  }
}

void CpuRotation::next() {
  if (cpus_.size() < static_cast<std::size_t>(width_)) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int i = 0; i < width_; ++i) CPU_SET(cpus_[(calls_ + i) % cpus_.size()], &set);
  ++calls_;
  sched_setaffinity(0, sizeof set, &set);
}

std::vector<double> window_ms(const std::vector<double>& step_us, std::size_t width) {
  std::vector<double> cells;
  double sum = 0.0;
  for (std::size_t i = 0; i < step_us.size(); ++i) {
    sum += step_us[i];
    if ((i + 1) % width == 0) {
      cells.push_back(sum * 1e-3);
      sum = 0.0;
    }
  }
  return cells;
}

void add_run(SimOutcome& sim, const dps::WorkloadSpec& spec, double latency) {
  sim.slowdown_sum += std::max(1.0, latency / spec.nominal_duration());
  ++sim.slowdown_count;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"pair_grid", "fleet_tree", "churn", "tcp_loop"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        Scale scale) {
  if (name == "pair_grid") return std::make_unique<PairGrid>(seed, scale);
  if (name == "fleet_tree") return std::make_unique<FleetTree>(seed, scale);
  if (name == "churn") return std::make_unique<Churn>(seed, scale);
  if (name == "tcp_loop") return make_tcp_loop(seed, scale);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
