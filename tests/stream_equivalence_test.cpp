// Equivalence tests for the streamed workload instances: a WorkloadInstance
// generates its realization one piece at a time, and Cluster keeps only the
// piece that holds each unit's progress. Both must reproduce the eager
// realization bit for bit — every piece, every demand and the step a run
// completes at — because the experiment CSVs and the benchmark digests are
// golden byte for byte. The reference below is a test-local copy of the
// eager realization the generator replaced (the whole jittered segment list
// built at bind, with prefix sums and a segment scan), plus a cluster that
// steps units on it with a scan from segment 0 at every lookup. All
// comparisons are exact (EXPECT_EQ on doubles), never EXPECT_NEAR.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "experiments/registry.hpp"
#include "sim/cluster.hpp"
#include "sim/perf_model.hpp"
#include "util/rng.hpp"
#include "workloads/instance.hpp"
#include "workloads/spec.hpp"
#include "workloads/trace_workload.hpp"

namespace dps {
namespace {

using Piece = WorkloadInstance::Piece;

constexpr Watts kUnbounded = std::numeric_limits<Watts>::infinity();

// --- The eager reference ---

/// The realization as it was built before instances streamed: the start
/// offset hold and every jittered segment, drawn at construction.
class EagerInstance {
 public:
  EagerInstance(const WorkloadSpec& spec, std::uint64_t seed) {
    Rng rng(seed);
    if (spec.socket_skew > 0.0) {
      const Seconds offset = rng.uniform(0.0, spec.socket_skew);
      segments_.push_back(hold(offset, kIdlePower));
    }
    const double run_scale =
        std::max(0.5, 1.0 + rng.normal(0.0, spec.duration_jitter));
    for (const auto& seg : spec.segments) {
      const double seg_scale =
          std::max(0.25, 1.0 + rng.normal(0.0, spec.duration_jitter * 0.5));
      const double power_scale =
          std::max(0.5, 1.0 + rng.normal(0.0, spec.power_jitter));
      Segment realized = seg;
      realized.duration = seg.duration * run_scale * seg_scale;
      realized.start_power = seg.start_power * power_scale;
      realized.end_power = seg.end_power * power_scale;
      segments_.push_back(realized);
    }
    finish();
  }

  static EagerInstance idle(Seconds duration) {
    EagerInstance inst;
    inst.segments_.push_back(hold(duration, kIdlePower));
    inst.active_ = false;
    inst.finish();
    return inst;
  }

  /// Demand at `progress` by a scan from `*hint`: the pre-run offset reads
  /// as idle demand, a finished run as idle power.
  Watts demand_at(Seconds progress, std::size_t* hint) const {
    if (segments_.empty()) return kIdlePower;
    if (progress <= 0.0) return segments_.front().start_power;
    if (progress >= total_work_) return kIdlePower;
    std::size_t i = std::min(*hint, segments_.size() - 1);
    while (i > 0 && progress < starts_[i]) --i;
    while (i + 1 < segments_.size() &&
           progress >= starts_[i] + segments_[i].duration) {
      ++i;
    }
    *hint = i;
    return piece(i).demand(progress);
  }

  /// The same from segment 0: the uncached lookup.
  Watts demand_at(Seconds progress) const {
    std::size_t hint = 0;
    return demand_at(progress, &hint);
  }

  Piece piece(std::size_t i) const {
    const auto& seg = segments_[i];
    Piece p;
    p.start = starts_[i];
    p.end = std::min(starts_[i] + seg.duration, total_work_);
    p.duration = seg.duration;
    p.start_power = seg.start_power;
    p.power_delta = seg.end_power - seg.start_power;
    return p;
  }

  std::size_t size() const { return segments_.size(); }
  Seconds total_work() const { return total_work_; }
  bool active() const { return active_; }

 private:
  EagerInstance() = default;

  void finish() {
    for (const auto& seg : segments_) {
      starts_.push_back(total_work_);
      total_work_ += seg.duration;
    }
  }

  std::vector<Segment> segments_;
  std::vector<Seconds> starts_;
  Seconds total_work_ = 0.0;
  bool active_ = true;
};

void expect_same_piece(const Piece& streamed, const Piece& eager,
                       const std::string& where) {
  EXPECT_EQ(streamed.start, eager.start) << where;
  EXPECT_EQ(streamed.end, eager.end) << where;
  EXPECT_EQ(streamed.duration, eager.duration) << where;
  EXPECT_EQ(streamed.start_power, eager.start_power) << where;
  EXPECT_EQ(streamed.power_delta, eager.power_delta) << where;
}

/// A streamed instance driven as Cluster drives it: the first piece at
/// bind, then pieces drawn whenever progress reaches the current one's end.
struct StreamedRun {
  explicit StreamedRun(WorkloadInstance inst) : instance(std::move(inst)) {
    piece.start_power = kIdlePower;  // what a realization without pieces reads
    instance.next(&piece);
  }
  void advance(Seconds by) {
    progress += by;
    while (progress >= piece.end) {
      if (!instance.next(&piece)) {
        done = true;
        return;
      }
    }
  }

  WorkloadInstance instance;
  Piece piece;
  Seconds progress = 0.0;
  bool done = false;
};

/// Runs both realizations of (spec, seed) side by side, each step at the
/// speed the perf model gives the demand under `cap`, and checks every
/// demand, every piece and the step the run completes at (the first whose
/// progress reaches the total work; a run of no work completes at its
/// first step). Returns the steps taken.
int expect_same_run(StreamedRun streamed, const EagerInstance& eager,
                    Watts cap, Seconds dt, const std::string& what) {
  const PerfModel model;
  std::size_t hint = 0;
  Seconds progress = 0.0;
  for (int step = 1;; ++step) {
    const std::string where = what + " step " + std::to_string(step);
    const Watts demand = eager.demand_at(progress, &hint);
    EXPECT_EQ(demand, eager.demand_at(progress)) << where;
    EXPECT_EQ(streamed.piece.demand(streamed.progress), demand) << where;
    expect_same_piece(streamed.piece, eager.piece(hint), where);
    if (progress > 0.0) {
      EXPECT_GE(streamed.progress, streamed.piece.start) << where;
      EXPECT_LT(streamed.progress, streamed.piece.end) << where;
    }
    const Seconds by = model.speed(demand, cap) * dt;
    progress += by;
    streamed.advance(by);
    EXPECT_EQ(streamed.progress, progress) << where;
    const bool done = progress >= eager.total_work();
    EXPECT_EQ(streamed.done, done) << where;
    if (done || streamed.done) {
      // The last piece ends at the eager total work, bit for bit.
      EXPECT_EQ(streamed.piece.end, eager.total_work()) << where;
      return step;
    }
  }
}

/// Uncapped, capped, and coarse steps that cross several pieces at once.
void expect_same_realization(const WorkloadSpec& spec, std::uint64_t seed) {
  const EagerInstance eager(spec, seed);
  const std::string what = spec.name + " seed " + std::to_string(seed);
  expect_same_run(StreamedRun(WorkloadInstance(spec, seed)), eager, kUnbounded,
                  1.0, what + " uncapped");
  expect_same_run(StreamedRun(WorkloadInstance(spec, seed)), eager, 95.0, 1.0,
                  what + " capped");
  expect_same_run(StreamedRun(WorkloadInstance(spec, seed)), eager, kUnbounded,
                  13.0, what + " coarse");
}

// A short phased workload: an idle start offset, ramps, holds and a
// zero-length segment, so runs end within tens of steps and progress
// crosses every kind of segment boundary.
WorkloadSpec phased_spec(const std::string& name, double scale,
                         int active_sockets, Seconds gap) {
  WorkloadSpec spec;
  spec.name = name;
  spec.segments = {ramp(3.7 * scale, 60.0, 140.0), hold(2.9 * scale, 150.0),
                   hold(0.0, 90.0), ramp(4.3 * scale, 150.0, 70.0),
                   hold(1.6 * scale, 45.0)};
  spec.active_sockets = active_sockets;
  spec.inter_run_gap = gap;
  spec.socket_skew = 1.5;
  return spec;
}

// Without jitter and start offset, integer durations put a unit's progress
// exactly on piece ends at whole-second steps: the boundary case, where a
// piece's end belongs to the next piece and the last end completes the run.
WorkloadSpec exact_spec() {
  WorkloadSpec spec;
  spec.name = "exact";
  spec.segments = {hold(3.0, 100.0), ramp(2.0, 60.0, 140.0), hold(0.0, 90.0),
                   hold(4.0, 130.0)};
  spec.duration_jitter = 0.0;
  spec.power_jitter = 0.0;
  spec.socket_skew = 0.0;
  spec.inter_run_gap = 2.0;
  return spec;
}

WorkloadSpec trace_spec() {
  std::vector<double> samples;
  for (int i = 0; i < 240; ++i) {
    const double phase = (i / 30) % 2 == 0 ? 140.0 : 60.0;
    samples.push_back(i % 7 == 0 ? phase : phase + 0.25 * (i % 5));
  }
  return workload_from_samples(samples, 0.5, "replay");
}

// --- Instance-level equivalence ---

TEST(StreamedInstance, RegistryWorkloadsMatchEagerRealization) {
  const auto names = all_workload_names();
  ASSERT_EQ(names.size(), 19u);
  for (const auto& name : names) {
    const WorkloadSpec spec = workload_by_name(name);
    for (const std::uint64_t seed : {1u, 7u, 11u, 42u}) {
      expect_same_realization(spec, mix_seed(seed, 3, 5));
    }
  }
}

TEST(StreamedInstance, IdleMatchesEager) {
  for (const Seconds duration : {1.0, 0.0, 437.25}) {
    const std::string what = "idle " + std::to_string(duration);
    const EagerInstance eager = EagerInstance::idle(duration);
    const WorkloadInstance idle = WorkloadInstance::idle(duration);
    EXPECT_FALSE(idle.active());
    EXPECT_FALSE(eager.active());
    StreamedRun run(idle);
    expect_same_piece(run.piece, eager.piece(0), what);
    EXPECT_EQ(run.piece.demand(0.0), eager.demand_at(0.0)) << what;
    expect_same_run(run, eager, 100.0, 1.0, what);
  }
}

TEST(StreamedInstance, TraceReplayMatchesEager) {
  const WorkloadSpec spec = trace_spec();
  ASSERT_GT(spec.segments.size(), 20u);
  for (const std::uint64_t seed : {2u, 9u, 31u}) {
    expect_same_realization(spec, seed);
  }
}

TEST(StreamedInstance, ZeroLengthPiecesMatchEager) {
  // Zero-length segments in the middle, first and last, and a spec of only
  // zero-length segments, each with and without the start offset.
  std::vector<WorkloadSpec> specs;
  specs.push_back(phased_spec("phased", 1.0, 0, 0.0));
  WorkloadSpec edges = specs.back();
  edges.name = "edges";
  edges.segments.insert(edges.segments.begin(), hold(0.0, 130.0));
  edges.segments.push_back(hold(0.0, 75.0));
  specs.push_back(edges);
  WorkloadSpec empty_work = edges;
  empty_work.name = "empty_work";
  empty_work.segments = {hold(0.0, 80.0), ramp(0.0, 90.0, 120.0)};
  specs.push_back(empty_work);
  for (auto spec : specs) {
    for (const Seconds skew : {1.5, 0.0}) {
      spec.socket_skew = skew;
      for (const std::uint64_t seed : {3u, 4u, 5u}) {
        expect_same_realization(spec, seed);
        // At progress 0 a run reads its first piece's start power, even a
        // zero-length piece's.
        const EagerInstance eager(spec, seed);
        StreamedRun run{WorkloadInstance(spec, seed)};
        EXPECT_EQ(run.piece.demand(0.0), eager.demand_at(0.0));
      }
    }
  }
}

TEST(StreamedInstance, ZeroSkewOffsetMatchesEager) {
  // The smallest positive skew draws an offset of exactly 0 for about half
  // the seeds: a zero-length start offset hold.
  WorkloadSpec spec = phased_spec("tiny_skew", 1.0, 0, 0.0);
  spec.socket_skew = std::numeric_limits<double>::denorm_min();
  int zero_offsets = 0;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    expect_same_realization(spec, seed);
    WorkloadInstance inst(spec, seed);
    Piece first;
    ASSERT_TRUE(inst.next(&first));
    EXPECT_EQ(first.start_power, kIdlePower);
    if (first.duration == 0.0) ++zero_offsets;
  }
  EXPECT_GT(zero_offsets, 0);
}

TEST(StreamedInstance, ExactBoundaryLandingsMatchEager) {
  const WorkloadSpec spec = exact_spec();
  const EagerInstance eager(spec, 1);
  ASSERT_EQ(eager.total_work(), 9.0);
  expect_same_realization(spec, 1);
  const int steps = expect_same_run(StreamedRun(WorkloadInstance(spec, 1)),
                                    eager, kUnbounded, 0.5, "halves");
  EXPECT_EQ(steps, 18);  // progress reaches 9.0 exactly at step 18
}

TEST(StreamedInstance, SpecWithoutPiecesIdlesUntilItsFirstStep) {
  WorkloadSpec spec;
  spec.name = "nothing";
  spec.socket_skew = 0.0;
  const EagerInstance eager(spec, 1);
  ASSERT_EQ(eager.size(), 0u);
  WorkloadInstance inst(spec, 1);
  Piece piece;
  EXPECT_FALSE(inst.next(&piece));
  StreamedRun run{WorkloadInstance(spec, 1)};
  EXPECT_EQ(run.piece.demand(0.0), eager.demand_at(0.0));
  run.advance(0.5);
  EXPECT_TRUE(run.done);
}

// --- Cluster-level equivalence ---

/// The cluster as it stepped eager instances: a copy of its group and job
/// bookkeeping, with every demand looked up by a scan from segment 0.
class EagerCluster {
 public:
  explicit EagerCluster(const std::vector<GroupSpec>& groups) {
    for (const auto& gspec : groups) {
      Group group;
      group.spec = gspec.workload;
      group.rotation = gspec.rotation;
      group.first_unit = static_cast<int>(units_.size());
      group.sockets = gspec.sockets;
      group.seed = gspec.seed;
      units_.resize(units_.size() + static_cast<std::size_t>(gspec.sockets));
      groups_.push_back(std::move(group));
    }
    for (auto& group : groups_) start_new_run(group);
  }

  explicit EagerCluster(int units) : job_mode_(true) {
    units_.resize(static_cast<std::size_t>(units));
  }

  int start_job(const WorkloadSpec& spec, std::span<const int> units,
                std::uint64_t seed) {
    const int slot = static_cast<int>(jobs_.size());
    jobs_.push_back({std::vector<int>(units.begin(), units.end()), true});
    for (std::size_t i = 0; i < units.size(); ++i) {
      Unit& unit = units_[static_cast<std::size_t>(units[i])];
      unit.slot = slot;
      unit.bind(EagerInstance(spec, mix_seed(seed, i)));
    }
    return slot;
  }

  void abort_job(int slot) {
    auto& job = jobs_[static_cast<std::size_t>(slot)];
    if (!job.active) return;
    job.active = false;
    for (const int u : job.units) {
      Unit& unit = units_[static_cast<std::size_t>(u)];
      if (unit.slot != slot) continue;
      unit.slot = -1;
      unit.bind(EagerInstance::idle(1.0));
      unit.done = true;
    }
  }

  std::vector<int> drain_finished_jobs() { return std::move(finished_); }

  void set_crashed(int u, bool crashed) {
    units_[static_cast<std::size_t>(u)].crashed = crashed;
  }

  const std::vector<Completion>& completions(int g) const {
    return groups_[static_cast<std::size_t>(g)].completions;
  }

  void step(Seconds dt, std::span<const Watts> caps, std::span<Watts> out) {
    for (std::size_t u = 0; u < units_.size(); ++u) {
      Unit& unit = units_[u];
      if (unit.crashed) {
        out[u] = 0.0;
        continue;
      }
      const bool running =
          job_mode_ ? unit.slot >= 0 && !unit.done
                    : !groups_[static_cast<std::size_t>(group_of(u))].in_gap &&
                          !unit.done;
      Watts demand = kIdlePower;
      if (running) {
        demand = unit.instance.demand_at(unit.progress);
        unit.progress += model_.speed(demand, caps[u]) * dt;
        if (unit.progress >= unit.instance.total_work()) unit.done = true;
      }
      out[u] = running && !unit.done ? model_.power_drawn(demand, caps[u])
                                     : kIdlePower;
    }
    now_ += dt;
    if (job_mode_) {
      retire_jobs();
    } else {
      finish_runs(dt);
    }
  }

  void true_demands(std::span<Watts> out) const {
    for (std::size_t u = 0; u < units_.size(); ++u) {
      const Unit& unit = units_[u];
      const bool running =
          job_mode_ ? unit.slot >= 0 && !unit.done
                    : !groups_[static_cast<std::size_t>(group_of(u))].in_gap &&
                          !unit.done;
      out[u] = unit.crashed ? 0.0
               : running    ? unit.instance.demand_at(unit.progress)
                            : kIdlePower;
    }
  }

 private:
  struct Unit {
    EagerInstance instance = EagerInstance::idle(1.0);
    Seconds progress = 0.0;
    bool done = true;
    bool crashed = false;
    int slot = -1;
    void bind(EagerInstance inst) {
      instance = std::move(inst);
      progress = 0.0;
      done = false;
    }
  };
  struct Group {
    WorkloadSpec spec;
    std::vector<WorkloadSpec> rotation;
    std::size_t rotation_next = 0;
    int workload_index = 0;
    int first_unit = 0;
    int sockets = 0;
    std::uint64_t seed = 1;
    int run_index = -1;
    std::vector<Completion> completions;
    Seconds run_start = 0.0;
    Seconds gap_remaining = 0.0;
    bool in_gap = false;
    const WorkloadSpec& current() const {
      return rotation.empty()
                 ? spec
                 : rotation[static_cast<std::size_t>(workload_index)];
    }
  };
  struct Job {
    std::vector<int> units;
    bool active = false;
  };

  int group_of(std::size_t u) const {
    int g = 0;
    while (g + 1 < static_cast<int>(groups_.size()) &&
           static_cast<std::size_t>(groups_[g + 1].first_unit) <= u) {
      ++g;
    }
    return g;
  }

  void start_new_run(Group& group) {
    if (!group.rotation.empty()) {
      group.workload_index = static_cast<int>(group.rotation_next);
      group.rotation_next = (group.rotation_next + 1) % group.rotation.size();
    }
    const WorkloadSpec& spec = group.current();
    const int active = spec.active_sockets > 0
                           ? std::min(spec.active_sockets, group.sockets)
                           : group.sockets;
    group.run_start = now_;
    group.in_gap = false;
    ++group.run_index;
    for (int s = 0; s < group.sockets; ++s) {
      Unit& unit = units_[static_cast<std::size_t>(group.first_unit + s)];
      if (s < active) {
        unit.bind(EagerInstance(
            spec, mix_seed(group.seed,
                           static_cast<std::uint64_t>(group.run_index),
                           static_cast<std::uint64_t>(s))));
      } else {
        unit.bind(EagerInstance::idle(spec.nominal_duration()));
        unit.done = true;
      }
    }
  }

  void finish_runs(Seconds dt) {
    for (auto& group : groups_) {
      if (group.in_gap) {
        group.gap_remaining -= dt;
        if (group.gap_remaining <= 0.0) start_new_run(group);
        continue;
      }
      bool all_done = true;
      for (int s = 0; s < group.sockets; ++s) {
        const Unit& unit =
            units_[static_cast<std::size_t>(group.first_unit + s)];
        if (unit.instance.active() && !unit.done) all_done = false;
      }
      if (all_done) {
        group.completions.push_back(
            Completion{group.run_start, now_, group.workload_index});
        group.in_gap = true;
        group.gap_remaining = group.current().inter_run_gap;
      }
    }
  }

  void retire_jobs() {
    for (std::size_t slot = 0; slot < jobs_.size(); ++slot) {
      auto& job = jobs_[slot];
      if (!job.active) continue;
      bool all_done = true;
      for (const int u : job.units) {
        const Unit& unit = units_[static_cast<std::size_t>(u)];
        if (unit.crashed || !unit.done) all_done = false;
      }
      if (!all_done) continue;
      job.active = false;
      for (const int u : job.units) {
        Unit& unit = units_[static_cast<std::size_t>(u)];
        unit.slot = -1;
        unit.bind(EagerInstance::idle(1.0));
        unit.done = true;
      }
      finished_.push_back(static_cast<int>(slot));
    }
  }

  PerfModel model_;
  std::vector<Unit> units_;
  std::vector<Group> groups_;
  std::vector<Job> jobs_;
  std::vector<int> finished_;
  Seconds now_ = 0.0;
  bool job_mode_ = false;
};

/// Steps both clusters once under `caps` and checks, bit for bit, every
/// unit's true demand before and after the step and its stepped power.
/// Returns the number of units running after the step.
int step_and_check(Cluster& cluster, EagerCluster& eager,
                   std::span<const Watts> caps, Seconds dt, int step) {
  const auto n = static_cast<std::size_t>(cluster.total_units());
  std::vector<Watts> demand(n), expected(n);
  cluster.true_demands(demand);
  eager.true_demands(expected);
  for (std::size_t u = 0; u < n; ++u) {
    EXPECT_EQ(demand[u], expected[u]) << "unit " << u << " step " << step;
  }
  std::vector<Watts> power(n), expected_power(n);
  cluster.step(dt, caps, power);
  eager.step(dt, caps, expected_power);
  cluster.true_demands(demand);
  eager.true_demands(expected);
  int running = 0;
  for (std::size_t u = 0; u < n; ++u) {
    EXPECT_EQ(power[u], expected_power[u]) << "unit " << u << " step " << step;
    EXPECT_EQ(demand[u], expected[u]) << "unit " << u << " step " << step;
    if (demand[u] != kIdlePower && demand[u] != 0.0) ++running;
  }
  return running;
}

void expect_same_completions(const Cluster& cluster,
                             const EagerCluster& eager) {
  for (int g = 0; g < cluster.num_groups(); ++g) {
    const auto& got = cluster.completions(g);
    const auto& want = eager.completions(g);
    ASSERT_EQ(got.size(), want.size()) << "group " << g;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].start, want[i].start) << "group " << g << " run " << i;
      EXPECT_EQ(got[i].end, want[i].end) << "group " << g << " run " << i;
      EXPECT_EQ(got[i].workload_index, want[i].workload_index);
    }
  }
}

TEST(DemandPieceCache, GroupModeStepMatchesUncachedDemand) {
  for (const bool capped : {false, true}) {
    SCOPED_TRACE(capped ? "mixed caps" : "unbounded caps");
    const WorkloadSpec a = phased_spec("a", 1.0, 0, 2.5);
    const WorkloadSpec b = phased_spec("b", 1.7, 2, 0.0);
    WorkloadSpec flat = phased_spec("flat", 0.6, 0, 1.0);
    flat.socket_skew = 0.0;  // no start offset hold
    WorkloadSpec replay = trace_spec();
    replay.inter_run_gap = 3.0;
    // Rotation groups, a group with one idle filler socket, and a replayed
    // trace.
    std::vector<GroupSpec> groups;
    groups.emplace_back(a, 4, 101, std::vector<WorkloadSpec>{a, b, flat});
    groups.emplace_back(b, 3, 202);
    groups.emplace_back(replay, 2, 303, std::vector<WorkloadSpec>{replay, a});
    EagerCluster eager(groups);
    Cluster cluster(std::move(groups));
    std::vector<Watts> caps(static_cast<std::size_t>(cluster.total_units()));
    for (std::size_t u = 0; u < caps.size(); ++u) {
      caps[u] = !capped || u % 3 == 2 ? kUnbounded : u % 3 == 0 ? 70.0 : 115.0;
    }

    int running = 0;
    for (int step = 0; step < 500; ++step) {
      // Unit 1 goes dark mid-run and resumes where it stopped.
      if (step == 9 || step == 16) {
        cluster.set_crashed(1, step == 9);
        eager.set_crashed(1, step == 9);
      }
      running += step_and_check(cluster, eager, caps, 0.7, step);
    }
    expect_same_completions(cluster, eager);
    // Every workload of the rotations ran to completion several times.
    EXPECT_GE(cluster.completions(0).size(), 9u);
    EXPECT_GE(cluster.completions(1).size(), 6u);
    EXPECT_GE(cluster.completions(2).size(), 2u);
    EXPECT_GT(running, 500 * 3);
  }
}

TEST(DemandPieceCache, JobModeRebindingMatchesUncachedDemand) {
  const WorkloadSpec a = phased_spec("a", 1.0, 0, 0.0);
  const WorkloadSpec b = phased_spec("b", 1.9, 0, 0.0);
  Cluster cluster(10);
  EagerCluster eager(10);
  const std::vector<Watts> caps(10, kUnbounded);
  std::map<int, std::vector<int>> jobs;  // live slot -> its units
  // Each spec is a temporary, as the scheduling runtime passes them.
  auto start = [&](bool first, std::vector<int> units, std::uint64_t seed) {
    const WorkloadSpec spec = first ? a : b;
    const int slot = cluster.start_job(spec, units, seed);
    EXPECT_EQ(eager.start_job(spec, units, seed), slot);
    jobs[slot] = std::move(units);
    return slot;
  };
  const int first = start(true, {0, 1, 2}, 11);
  start(false, {4, 5, 6, 7}, 12);

  int running = 0;
  int retired = 0;
  for (int step = 0; step < 300; ++step) {
    if (step == 5) {
      // Abort mid-run and hand the units straight to a new job.
      cluster.abort_job(first);
      eager.abort_job(first);
      jobs.erase(first);
      start(false, {0, 1, 2, 3}, 13);
    }
    if (step == 20 || step == 27) {
      cluster.set_crashed(5, step == 20);
      eager.set_crashed(5, step == 20);
    }
    running += step_and_check(cluster, eager, caps, 0.7, step);
    // A retired job's units are rebound to a fresh job at once.
    const std::vector<int> finished = cluster.drain_finished_jobs();
    EXPECT_EQ(finished, eager.drain_finished_jobs()) << "step " << step;
    for (const int slot : finished) {
      std::vector<int> units = std::move(jobs.at(slot));
      jobs.erase(slot);
      ++retired;
      start(retired % 2 == 0, std::move(units),
            100 + static_cast<std::uint64_t>(retired));
    }
  }
  EXPECT_GE(retired, 6);
  EXPECT_GT(running, 300 * 3);
}

TEST(DemandPieceCache, ExactBoundaryLandingsMatchUncachedDemand) {
  std::vector<GroupSpec> groups;
  groups.emplace_back(exact_spec(), 3, 5);
  WorkloadSpec slower = exact_spec();
  slower.name = "exact_rotation";
  slower.segments.push_back(ramp(1.0, 130.0, 40.0));
  groups.emplace_back(slower, 2, 6, std::vector<WorkloadSpec>{slower,
                                                               exact_spec()});
  EagerCluster eager(groups);
  Cluster cluster(std::move(groups));
  const std::vector<Watts> caps(5, kUnbounded);
  for (int step = 0; step < 60; ++step) {
    step_and_check(cluster, eager, caps, 1.0, step);
  }
  expect_same_completions(cluster, eager);
  // Runs of 9 s of work complete at their ninth step, then idle 2 s.
  ASSERT_GE(cluster.completions(0).size(), 5u);
  EXPECT_EQ(cluster.completions(0)[0].end, 9.0);
}

TEST(DemandPieceCache, RegistryFleetMatchesUncachedDemand) {
  // Groups cycling the 19 registry workloads, as the 100k-unit fleet does,
  // capped low enough that units run at different speeds.
  const auto names = all_workload_names();
  std::vector<GroupSpec> groups;
  for (std::size_t g = 0; g < 2 * names.size(); ++g) {
    groups.emplace_back(workload_by_name(names[g % names.size()]), 3,
                        mix_seed(7, g));
  }
  EagerCluster eager(groups);
  Cluster cluster(std::move(groups));
  std::vector<Watts> caps(static_cast<std::size_t>(cluster.total_units()));
  for (std::size_t u = 0; u < caps.size(); ++u) {
    caps[u] = u % 2 == 0 ? kUnbounded : 90.0 + static_cast<double>(u % 7);
  }
  for (int step = 0; step < 400; ++step) {
    step_and_check(cluster, eager, caps, 1.0, step);
  }
  expect_same_completions(cluster, eager);
  // The short NPB workloads finished runs; the long Spark ones still run.
  std::size_t runs = 0;
  for (int g = 0; g < cluster.num_groups(); ++g) {
    runs += cluster.completions(g).size();
  }
  EXPECT_GT(runs, 0u);
  EXPECT_EQ(cluster.min_completions(), 0);
}

}  // namespace
}  // namespace dps
