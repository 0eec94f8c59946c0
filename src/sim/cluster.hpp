#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sched/job.hpp"
#include "sim/perf_model.hpp"
#include "util/rng.hpp"
#include "workloads/instance.hpp"
#include "workloads/spec.hpp"

namespace dps {

/// One completed run of a workload on its cluster group.
struct Completion {
  Seconds start;
  Seconds end;
  /// Index into the group's rotation (0 when the group runs a single
  /// workload).
  int workload_index = 0;
  Seconds latency() const { return end - start; }
};

/// A group of sockets executing one workload repeatedly — the paper's
/// "cluster" (each experiment co-runs two 5-node, 10-socket clusters).
/// When `rotation` is non-empty the group cycles through those workloads
/// round-robin instead, modelling a job queue submitting a mix of
/// applications to the cluster.
struct GroupSpec {
  GroupSpec() = default;
  GroupSpec(WorkloadSpec workload_, int sockets_ = 10,
            std::uint64_t seed_ = 1, std::vector<WorkloadSpec> rotation_ = {})
      : workload(std::move(workload_)),
        sockets(sockets_),
        seed(seed_),
        rotation(std::move(rotation_)) {}

  WorkloadSpec workload;
  int sockets = 10;
  std::uint64_t seed = 1;
  std::vector<WorkloadSpec> rotation;
};

/// Simulated overprovisioned system: all power-capping units (sockets) of
/// all cluster groups. Each decision step the engine hands in the effective
/// per-unit caps; the cluster advances every unit's workload progress at the
/// model's speed, reports true power, coordinates per-group run completion
/// (a run finishes when its slowest active socket finishes — Spark stages
/// and MPI ranks synchronize), and schedules the next run after the
/// workload's inter-run gap.
/// In *job mode* (the second constructor) there are no static groups:
/// units start idle and the scheduling runtime starts jobs on them through
/// the sched::JobHost interface, under its own job ids; the cluster is the
/// one record of which unit runs which job. A job finishes when every unit
/// of its allocation finishes its realization (synchronizing stages, as in
/// group mode). Every unit, in a group's run, in its gap or in job mode,
/// steps through the same per-unit physics.
class Cluster : public sched::JobHost {
 public:
  Cluster(std::vector<GroupSpec> groups, const PerfModel& model = PerfModel());

  /// Job-mode cluster: `total_units` idle power-capping units and no
  /// groups. Drive it via the JobHost interface.
  explicit Cluster(int total_units, const PerfModel& model = PerfModel());

  // Each unit's instance refers to the spec its group or job owns, so a
  // copy would refer to the original's specs.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int total_units() const { return static_cast<int>(unit_group_.size()); }
  int num_groups() const { return static_cast<int>(groups_.size()); }

  /// Advances the whole system by `dt`, writing each unit's true power draw
  /// into `true_power_out` (size must equal total_units()). One block
  /// covering every group, then end_step().
  void step(Seconds dt, std::span<const Watts> effective_caps,
            std::span<Watts> true_power_out);

  /// A run of whole groups and the contiguous units they own: the piece of
  /// a step that one thread advances (see SimulationEngine::run).
  struct StepBlock {
    int first_group = 0;
    int last_group = 0;
    int first_unit = 0;
    int last_unit = 0;
  };

  /// The groups, in order, cut into blocks that each close once they hold
  /// at least `min_units` units (the last may hold fewer). A job-mode
  /// cluster is one block of every unit.
  std::vector<StepBlock> step_blocks(int min_units) const;

  /// Advances `block`'s units by `dt` under `effective_caps`, writing their
  /// power into `true_power_out` (both spans cover every unit), then runs
  /// its groups' bookkeeping (completions, gaps, new runs) against the
  /// post-step clock now() + dt. Blocks share no state, so the blocks of
  /// one step may run on different threads and in any order; end_step()
  /// closes the step once all of them have run.
  void step_block(const StepBlock& block, Seconds dt,
                  std::span<const Watts> effective_caps,
                  std::span<Watts> true_power_out);

  /// Advances the clock by `dt` after every block of the step; in job mode
  /// it also retires, in start order, the jobs whose units all finished.
  void end_step(Seconds dt);

  /// Instantaneous true (uncapped) power demand of every unit; this is what
  /// the oracle manager is allowed to see and what satisfaction's
  /// denominator integrates.
  void true_demands(std::span<Watts> out) const;

  /// Completed runs of group `g` so far.
  const std::vector<Completion>& completions(int g) const;

  /// Runs completed by the group with the fewest completions. In job mode
  /// (no groups) this is the number of completed jobs.
  int min_completions() const;

  // --- sched::JobHost (job mode; start_job throws in group mode) ---
  /// Throws std::invalid_argument on an empty allocation, a job id that is
  /// already running, or a unit that is out of range or bound; it then
  /// binds no unit.
  void start_job(int job, WorkloadSpec spec, std::span<const int> units,
                 std::uint64_t seed) override;
  void abort_job(int job) override;
  std::vector<int> drain_finished_jobs() override;
  /// Whether a running job holds the unit: its units run real work until
  /// the job ends.
  bool unit_busy(int unit) const override {
    return unit_active_.at(static_cast<std::size_t>(unit)) != 0;
  }
  bool unit_crashed(int unit) const override {
    return unit_crashed_.at(static_cast<std::size_t>(unit)) != 0;
  }

  bool job_mode() const { return job_mode_; }

  /// Simulated time so far.
  Seconds now() const { return now_; }

  /// Group index that unit `u` belongs to.
  int group_of(int u) const {
    return unit_group_.at(static_cast<std::size_t>(u));
  }

  /// Marks unit `u` crashed / restored (driven by the fault injector). A
  /// crashed unit draws no power and makes no progress; its group's run
  /// stalls on it until the restart (a warm restart: work resumes where it
  /// stopped, as with checkpointed Spark stages / MPI ranks).
  void set_crashed(int u, bool crashed) {
    unit_crashed_.at(static_cast<std::size_t>(u)) = crashed ? 1 : 0;
  }
  bool crashed(int u) const {
    return unit_crashed_.at(static_cast<std::size_t>(u)) != 0;
  }

  /// Average true power of unit `u` over the whole simulation (energy /
  /// time); used for satisfaction.
  Watts mean_true_power(int u) const;

  /// Average true power over the *active* (non-gap) portion of group `g`'s
  /// runs so far.
  Watts group_mean_power(int g) const;

  const WorkloadSpec& group_workload(int g) const;

 private:
  struct JobState {
    int id = -1;
    std::vector<int> units;
    // What the job's instances refer to; freed when the job ends.
    std::unique_ptr<const WorkloadSpec> spec;
  };

  struct GroupState {
    WorkloadSpec spec;           // single-workload mode
    std::vector<WorkloadSpec> rotation;
    std::size_t rotation_next = 0;
    int current_workload_index = 0;
    int first_unit = 0;
    int sockets = 0;
    std::uint64_t seed = 1;
    int run_index = -1;  // increments at every start_new_run
    std::vector<Completion> completions;
    Seconds run_start = 0.0;
    Seconds gap_remaining = 0.0;
    bool in_gap = false;
    Joules active_energy = 0.0;
    Seconds active_time = 0.0;

    const WorkloadSpec& current() const {
      return rotation.empty()
                 ? spec
                 : rotation[static_cast<std::size_t>(current_workload_index)];
    }
  };

  /// Starts `group`'s next run at time `now`.
  void start_new_run(GroupState& group, Seconds now);
  /// One step of `group`: its units' physics, then its bookkeeping against
  /// the post-step clock `end`.
  void step_group(GroupState& group, Seconds dt, Seconds end,
                  std::span<const Watts> effective_caps,
                  std::span<Watts> true_power_out);
  /// Unit `u`'s physics over `dt` under `cap`; returns its true draw.
  /// Inline (defined in cluster.cpp before its callers): the group, gap
  /// and job loops call it once per unit.
  inline Watts step_unit(std::size_t u, Seconds dt, Watts cap);
  /// Returns a job's units to idle.
  void release(const JobState& job);
  void resize_units(std::size_t n);
  /// Binds `instance` to unit `u` at progress 0 and caches its first
  /// piece.
  void bind(std::size_t u, WorkloadInstance instance);
  /// Draws unit `u`'s pieces until one holds its progress, or marks the
  /// unit done once its progress passes the last piece's end.
  void advance(std::size_t u);

  // Groups never move after construction: units' instances refer to their
  // specs.
  std::vector<GroupState> groups_;

  // Per-unit state as parallel structure-of-arrays vectors (index = unit).
  // The step loop is the simulator's hottest path; keeping each mutable
  // field contiguous turns it into branch-light single passes instead of
  // strided walks over a fat struct. Invariant: a running unit's cached
  // piece holds its progress (the first piece at progress 0), so its
  // demand costs no pointer chase; the unit's instance is touched only
  // when its progress leaves the piece. A unit that is done idles: every
  // unit of a group in its gap, and every unit no job holds.
  std::vector<WorkloadInstance> unit_instance_;
  std::vector<int> unit_group_;             // -1 in job mode
  std::vector<Seconds> unit_progress_;
  std::vector<WorkloadInstance::Piece> unit_piece_;
  std::vector<std::uint8_t> unit_active_;   // bound to real work
  std::vector<Joules> unit_energy_;
  std::vector<std::uint8_t> unit_done_;     // finished, waiting for the group
  std::vector<std::uint8_t> unit_crashed_;  // dark, frozen until restart

  PerfModel model_;
  Seconds now_ = 0.0;

  // Job mode.
  bool job_mode_ = false;
  std::vector<JobState> running_jobs_;  // in start order
  std::vector<int> finished_jobs_;      // retired since the last drain
  int jobs_completed_ = 0;
};

}  // namespace dps
