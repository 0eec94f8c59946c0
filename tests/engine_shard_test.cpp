// The engine's sharded physics step must not depend on how many CPUs run
// it: pinned to 1, 2, 3 and 4 CPUs, a fleet of several step blocks gives
// the manager the same readings and ends with the same completions,
// powers and caps, under flat DPS, flat SLURM and a pooled DPS tree. Its
// block workers and leaf threads all add to one phase table.

#include <gtest/gtest.h>

#include <sched.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/dps_manager.hpp"
#include "ctrl/tree.hpp"
#include "experiments/pair_runner.hpp"
#include "experiments/registry.hpp"
#include "obs/phase.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace dps {
namespace {

#if defined(__SANITIZE_THREAD__)
// Three blocks still: two of 4,100 units and one of 45.
constexpr int kGroups = 412;
constexpr int kSteps = 32;
#else
// Four blocks: three of 4,100 units and one of 45.
constexpr int kGroups = 617;
constexpr int kSteps = 40;
#endif

/// A short phased workload with jitter, so groups complete, sit in gaps
/// and restart inside the horizon.
WorkloadSpec short_spec(int g) {
  WorkloadSpec spec;
  spec.name = "short" + std::to_string(g % 4);
  spec.segments = {hold(2.0 + g % 3, 60.0 + g % 7),
                   ramp(3.0 + g % 5, 90.0, 150.0 + g % 11),
                   hold(3.0, 80.0)};
  spec.inter_run_gap = 1.0 + g % 2;
  spec.duration_jitter = 0.1;
  spec.power_jitter = 0.05;
  spec.socket_skew = 1.0;
  return spec;
}

/// kGroups groups of 20 sockets and one of 5 (an odd unit count). Every
/// third group rotates through short workloads; of the others, half run
/// one short workload and half a registry workload.
std::vector<GroupSpec> fleet() {
  const std::vector<std::string> names = all_workload_names();
  std::vector<GroupSpec> groups;
  for (int g = 0; g <= kGroups; ++g) {
    const int sockets = g < kGroups ? 20 : 5;
    const std::uint64_t seed = mix_seed(11, static_cast<std::uint64_t>(g));
    if (g % 3 == 0) {
      groups.emplace_back(short_spec(g), sockets, seed,
                          std::vector<WorkloadSpec>{short_spec(g + 1),
                                                    short_spec(g + 2)});
    } else if (g % 3 == 1) {
      groups.emplace_back(short_spec(g), sockets, seed);
    } else {
      groups.emplace_back(
          workload_by_name(names[static_cast<std::size_t>(g) % names.size()]),
          sockets, seed);
    }
  }
  return groups;
}

/// Passes decisions through and keeps every reading it is given.
class Recording final : public PowerManager {
 public:
  explicit Recording(std::unique_ptr<PowerManager> inner)
      : inner_(std::move(inner)) {}
  std::string_view name() const override { return inner_->name(); }
  void reset(const ManagerContext& ctx) override { inner_->reset(ctx); }
  void decide(std::span<const Watts> power, std::span<Watts> caps) override {
    readings.insert(readings.end(), power.begin(), power.end());
    inner_->decide(power, caps);
  }
  void update_budget(Watts budget) override { inner_->update_budget(budget); }

  std::vector<Watts> readings;

 private:
  std::unique_ptr<PowerManager> inner_;
};

struct Outcome {
  std::vector<Watts> readings;
  std::vector<std::vector<Completion>> completions;
  std::vector<Watts> group_mean_power;
  std::vector<Watts> caps;
  double blocks = 0.0;
  double workers = 0.0;
};

enum class Kind { kDps, kSlurm, kTree };

Outcome run_fleet(Kind kind) {
  Cluster cluster(fleet());
  const int n = cluster.total_units();
  RaplSimConfig rapl_config;
  rapl_config.noise_seed = 97;
  SimulatedRapl rapl(n, rapl_config);
  std::unique_ptr<PowerManager> inner;
  switch (kind) {
    case Kind::kDps:
      inner = make_manager(ManagerKind::kDps);
      break;
    case Kind::kSlurm:
      inner = make_manager(ManagerKind::kSlurm);
      break;
    case Kind::kTree: {
      CtrlConfig ctrl;
      ctrl.shard_size = 32;
      ctrl.leaf_jobs = 2;
      inner = std::make_unique<TreeController>(ctrl);
      break;
    }
  }
  Recording manager(std::move(inner));
  EngineConfig config;
  config.total_budget = 110.0 * n;
  config.target_completions = 1 << 30;
  config.max_time = kSteps;
  config.obs = obs::ObsSink::create(16);
  const EngineResult result =
      SimulationEngine(config).run(cluster, rapl, manager);
  EXPECT_EQ(result.steps, kSteps);

  Outcome out;
  out.readings = std::move(manager.readings);
  out.completions = result.completions;
  out.group_mean_power = result.group_mean_power;
  for (int u = 0; u < n; ++u) out.caps.push_back(rapl.cap(u));
  out.blocks = config.obs.gauge("engine_physics_blocks")->value();
  out.workers = config.obs.gauge("engine_physics_workers")->value();
  return out;
}

/// Restores the calling thread's CPU mask when it goes out of scope.
class AffinityGuard {
 public:
  AffinityGuard() {
    CPU_ZERO(&saved_);
    ok_ = sched_getaffinity(0, sizeof saved_, &saved_) == 0;
  }
  ~AffinityGuard() {
    if (ok_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  AffinityGuard(const AffinityGuard&) = delete;
  AffinityGuard& operator=(const AffinityGuard&) = delete;

  /// The CPUs of the saved mask, in order.
  std::vector<int> cpus() const {
    std::vector<int> out;
    for (int cpu = 0; ok_ && cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) out.push_back(cpu);
    }
    return out;
  }

  /// Pins the calling thread (and the pools it starts) to the first
  /// `count` CPUs of the saved mask.
  bool pin(const std::vector<int>& cpus, std::size_t count) const {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (std::size_t i = 0; i < count; ++i) CPU_SET(cpus[i], &set);
    return sched_setaffinity(0, sizeof set, &set) == 0;
  }

 private:
  cpu_set_t saved_;
  bool ok_ = false;
};

void expect_same(const Outcome& a, const Outcome& b, std::size_t cpus) {
  SCOPED_TRACE(std::to_string(cpus) + " CPUs against 1");
  ASSERT_EQ(a.readings.size(), b.readings.size());
  for (std::size_t i = 0; i < a.readings.size(); ++i) {
    ASSERT_EQ(a.readings[i], b.readings[i]) << "reading " << i;
  }
  ASSERT_EQ(a.completions.size(), b.completions.size());
  for (std::size_t g = 0; g < a.completions.size(); ++g) {
    ASSERT_EQ(a.completions[g].size(), b.completions[g].size()) << "group " << g;
    for (std::size_t i = 0; i < a.completions[g].size(); ++i) {
      EXPECT_EQ(a.completions[g][i].start, b.completions[g][i].start);
      EXPECT_EQ(a.completions[g][i].end, b.completions[g][i].end);
      EXPECT_EQ(a.completions[g][i].workload_index,
                b.completions[g][i].workload_index);
    }
  }
  EXPECT_EQ(a.group_mean_power, b.group_mean_power);
  EXPECT_EQ(a.caps, b.caps);
  EXPECT_EQ(a.blocks, b.blocks);
}

class EngineShards : public ::testing::TestWithParam<Kind> {};

TEST_P(EngineShards, SameOutputsOnAnyNumberOfCpus) {
  const AffinityGuard guard;
  const std::vector<int> cpus = guard.cpus();
  ASSERT_FALSE(cpus.empty());
  ASSERT_TRUE(guard.pin(cpus, 1));
  const Outcome serial = run_fleet(GetParam());
  EXPECT_EQ(serial.blocks, kGroups / 205 + 1);
  EXPECT_EQ(serial.workers, 1.0);
  // The horizon holds completions, gap restarts and rotations: some group
  // finished two runs of different workloads.
  bool rotated = false;
  for (const auto& runs : serial.completions) {
    rotated = rotated || (runs.size() >= 2 &&
                          runs[0].workload_index != runs[1].workload_index);
  }
  EXPECT_TRUE(rotated);

  for (std::size_t count = 2; count <= std::min<std::size_t>(4, cpus.size());
       ++count) {
    ASSERT_TRUE(guard.pin(cpus, count));
    const Outcome sharded = run_fleet(GetParam());
    EXPECT_GE(sharded.workers, 2.0) << count << " CPUs";
    expect_same(serial, sharded, count);
  }
}

TEST(EngineShardPhases, BlockWorkersAndLeafThreadsShareOneTable) {
  const AffinityGuard guard;
  const std::vector<int> cpus = guard.cpus();
  ASSERT_FALSE(cpus.empty());
  ASSERT_TRUE(guard.pin(cpus, std::min<std::size_t>(4, cpus.size())));
  Cluster cluster(fleet());
  const int n = cluster.total_units();
  SimulatedRapl rapl(n);
  CtrlConfig ctrl;
  ctrl.shard_size = 32;
  ctrl.leaf_jobs = 2;
  TreeController tree(ctrl);
  EngineConfig config;
  config.total_budget = 110.0 * n;
  config.target_completions = 1 << 30;
  config.max_time = kSteps;
  config.obs = obs::ObsSink::create(16);
  config.obs.attach_phase_times();
  const EngineResult result = SimulationEngine(config).run(cluster, rapl, tree);
  ASSERT_EQ(result.steps, kSteps);

  const obs::PhaseTimes& times = *config.obs.phases();
  const auto steps = static_cast<std::uint64_t>(kSteps);
  const auto blocks = static_cast<std::uint64_t>(
      config.obs.gauge("engine_physics_blocks")->value());
  EXPECT_EQ(times.entries(obs::Phase::kEnginePhysics), steps);
  EXPECT_EQ(times.entries(obs::Phase::kSimStep), blocks * steps);
  EXPECT_EQ(times.entries(obs::Phase::kPowerRecord), 2 * blocks * steps);
  EXPECT_EQ(times.entries(obs::Phase::kBlockRead), blocks * steps);
  EXPECT_EQ(times.entries(obs::Phase::kPowerRead), 0u);
  // 386 shards exceed the fan-out of 32, so the root tier is itself a
  // tree of 13 shards. It is timed and counted only inside the outer
  // ctrl.root: one entry of each phase and one round per step, and only
  // the real leaves feed the leaf histogram.
  ASSERT_EQ(tree.levels(), 3);
  const auto& inner = dynamic_cast<const TreeController&>(tree.root());
  EXPECT_EQ(times.entries(obs::Phase::kCtrlRoot), steps);
  EXPECT_EQ(times.entries(obs::Phase::kCtrlLeaf), steps);
  EXPECT_LE(times.ns(obs::Phase::kCtrlRoot) + times.ns(obs::Phase::kCtrlLeaf),
            times.ns(obs::Phase::kEngineDecide));
  EXPECT_EQ(config.obs.counter("ctrl_tree_rounds_total")->value(), steps);
  EXPECT_EQ(config.obs.latency_histogram("ctrl_root_decide_seconds")->count(),
            steps);
  EXPECT_EQ(config.obs.latency_histogram("ctrl_leaf_decide_seconds")->count(),
            static_cast<std::uint64_t>(tree.num_shards()) * steps);
  // Every leaf and root manager runs the DPS stages, the real leaves on
  // the pool's two threads and the rest on the engine's.
  const auto decides = static_cast<std::uint64_t>(
                           tree.num_shards() + inner.num_shards() + 1) *
                       steps;
  EXPECT_EQ(times.entries(obs::Phase::kCoreHistory), decides);
  EXPECT_EQ(times.entries(obs::Phase::kCoreEvict), decides);
  EXPECT_TRUE(times.summed(obs::Phase::kCoreHistory));
  EXPECT_FALSE(times.summed(obs::Phase::kEngineDecide));
  EXPECT_EQ(config.obs.latency_histogram("dps_history_update_seconds")->count(),
            decides);
}

INSTANTIATE_TEST_SUITE_P(Managers, EngineShards,
                         ::testing::Values(Kind::kDps, Kind::kSlurm,
                                           Kind::kTree),
                         [](const auto& info) {
                           switch (info.param) {
                             case Kind::kDps:
                               return std::string("FlatDps");
                             case Kind::kSlurm:
                               return std::string("FlatSlurm");
                             case Kind::kTree:
                               return std::string("DpsTree");
                           }
                           return std::string();
                         });

}  // namespace
}  // namespace dps
