#pragma once

#include <span>
#include <vector>

#include "sched/job.hpp"

namespace dps::sched {

/// The surface through which the placement layer drives whatever executes
/// jobs on concrete units. Implemented by the simulator's Cluster (job
/// mode); keeping it abstract lets dps_sched sit below dps_sim in the
/// library stack.
class JobHost {
 public:
  virtual ~JobHost() = default;

  /// Starts `spec` on the given idle units; `seed` keys the per-unit
  /// jitter realizations. Returns a host-side slot handle. The host keeps
  /// the spec, so callers move theirs in.
  virtual int start_job(WorkloadSpec spec, std::span<const int> units,
                        std::uint64_t seed) = 0;

  /// Kills a running job (crash requeue); its healthy units go idle.
  virtual void abort_job(int slot) = 0;

  /// Host slots whose jobs completed since the previous drain, in
  /// completion order.
  virtual std::vector<int> drain_finished_jobs() = 0;

  /// Whether the unit is currently crashed (fault-injected).
  virtual bool unit_crashed(int unit) const = 0;
};

/// Tracks which units are free, crashed, or bound to which job, and hands
/// out deterministic allocations (lowest-index free units first).
class PlacementMap {
 public:
  explicit PlacementMap(int total_units);

  int total_units() const { return static_cast<int>(owner_.size()); }
  /// Idle, un-crashed units available for allocation.
  int free_count() const;
  /// Units currently bound to jobs.
  int busy_count() const { return busy_; }

  /// Picks `n` free units (lowest index first) and binds them to
  /// `job_id`. Throws std::invalid_argument when fewer than `n` are free.
  std::vector<int> bind(int job_id, int n);

  /// Unbinds every unit of `job_id`; returns the freed units.
  std::vector<int> release(int job_id);

  void set_crashed(int unit, bool crashed);
  bool crashed(int unit) const {
    return crashed_[static_cast<std::size_t>(unit)];
  }

  /// Job bound to `unit`, -1 when idle.
  int job_on(int unit) const { return owner_[static_cast<std::size_t>(unit)]; }

  /// Units of `job_id` (empty when unknown).
  std::vector<int> units_of(int job_id) const;

 private:
  std::vector<int> owner_;    // per unit: bound job id, -1 = idle
  std::vector<bool> crashed_;
  int busy_ = 0;
};

}  // namespace dps::sched
