#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sched/placement.hpp"
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
/// units start idle and the scheduling runtime binds WorkloadSpecs to them
/// through the sched::JobHost interface. A job finishes when every unit of
/// its allocation finishes its realization (synchronizing stages, as in
/// group mode).
class Cluster : public sched::JobHost {
 public:
  Cluster(std::vector<GroupSpec> groups, const PerfModel& model = PerfModel());

  /// Job-mode cluster: `total_units` idle power-capping units and no
  /// groups. Drive it via the JobHost interface.
  explicit Cluster(int total_units, const PerfModel& model = PerfModel());

  int total_units() const { return static_cast<int>(unit_group_.size()); }
  int num_groups() const { return static_cast<int>(groups_.size()); }

  /// Advances the whole system by `dt`, writing each unit's true power draw
  /// into `true_power_out` (size must equal total_units()).
  void step(Seconds dt, std::span<const Watts> effective_caps,
            std::span<Watts> true_power_out);

  /// Instantaneous true (uncapped) power demand of every unit; this is what
  /// the oracle manager is allowed to see and what satisfaction's
  /// denominator integrates.
  void true_demands(std::span<Watts> out) const;

  /// Completed runs of group `g` so far.
  const std::vector<Completion>& completions(int g) const;

  /// Runs completed by the group with the fewest completions. In job mode
  /// (no groups) this is the number of completed jobs.
  int min_completions() const;

  // --- sched::JobHost (job mode only; throws in group mode) ---
  int start_job(const WorkloadSpec& spec, std::span<const int> units,
                std::uint64_t seed) override;
  void abort_job(int slot) override;
  std::vector<int> drain_finished_jobs() override;
  bool unit_crashed(int unit) const override {
    return unit_crashed_.at(static_cast<std::size_t>(unit)) != 0;
  }

  bool job_mode() const { return job_mode_; }
  /// Units currently bound to a job (job mode).
  int busy_units() const;

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
    std::vector<int> units;
    bool active = false;
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

  void start_new_run(GroupState& group);
  void step_jobs(Seconds dt, std::span<const Watts> effective_caps,
                 std::span<Watts> true_power_out);
  void resize_units(std::size_t n);
  /// Binds `instance` to unit `u` and refreshes what the step caches of it.
  void bind(std::size_t u, WorkloadInstance instance);
  /// Demand of unit `u` at its progress: from the cached piece while the
  /// progress stays inside it, else from demand_at, re-caching the piece.
  Watts unit_demand(std::size_t u);

  std::vector<GroupState> groups_;

  // Per-unit state as parallel structure-of-arrays vectors (index = unit).
  // The step loop is the simulator's hottest path; keeping each mutable
  // field contiguous turns it into branch-light single passes instead of
  // strided walks over a fat struct. The realized workload stays an
  // immutable, indexed WorkloadInstance; what the step reads of it (total
  // work, active flag, current demand piece) is cached here, so a unit
  // whose progress stays inside its piece costs no pointer chase.
  std::vector<WorkloadInstance> unit_instance_;
  std::vector<int> unit_group_;             // -1 in job mode
  std::vector<int> unit_job_slot_;          // job mode: bound slot, -1 = idle
  std::vector<Seconds> unit_progress_;
  std::vector<std::size_t> unit_hint_;      // amortizes demand lookups
  std::vector<WorkloadInstance::Piece> unit_piece_;  // empty after bind()
  std::vector<Seconds> unit_total_work_;
  std::vector<std::uint8_t> unit_active_;
  std::vector<Joules> unit_energy_;
  std::vector<Watts> unit_last_power_;
  std::vector<std::uint8_t> unit_done_;     // finished, waiting for the group
  std::vector<std::uint8_t> unit_crashed_;  // dark, frozen until restart

  PerfModel model_;
  Seconds now_ = 0.0;

  // Job mode.
  bool job_mode_ = false;
  std::vector<JobState> jobs_;       // slot = index; slots are not reused
  std::vector<int> finished_slots_;  // completed since the last drain
  int jobs_completed_ = 0;
};

}  // namespace dps
