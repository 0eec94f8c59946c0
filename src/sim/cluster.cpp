#include "sim/cluster.hpp"

#include <algorithm>
#include <stdexcept>

namespace dps {

void Cluster::resize_units(std::size_t n) {
  const WorkloadInstance idle = WorkloadInstance::idle(1.0);
  unit_instance_.assign(n, idle);
  unit_group_.assign(n, 0);
  unit_job_slot_.assign(n, -1);
  unit_progress_.assign(n, 0.0);
  unit_hint_.assign(n, 0);
  unit_piece_.assign(n, WorkloadInstance::Piece{});
  unit_total_work_.assign(n, idle.total_work());
  unit_active_.assign(n, idle.active() ? 1 : 0);
  unit_energy_.assign(n, 0.0);
  unit_last_power_.assign(n, 0.0);
  unit_done_.assign(n, 0);
  unit_crashed_.assign(n, 0);
}

Cluster::Cluster(std::vector<GroupSpec> groups, const PerfModel& model)
    : model_(model) {
  if (groups.empty()) {
    throw std::invalid_argument("Cluster: need at least one group");
  }
  std::size_t total = 0;
  for (const auto& gspec : groups) {
    if (gspec.sockets <= 0) {
      throw std::invalid_argument("Cluster: group needs sockets > 0");
    }
    total += static_cast<std::size_t>(gspec.sockets);
  }
  resize_units(total);
  std::size_t next_unit = 0;
  for (const auto& gspec : groups) {
    GroupState group;
    group.spec = gspec.workload;
    group.rotation = gspec.rotation;
    group.first_unit = static_cast<int>(next_unit);
    group.sockets = gspec.sockets;
    group.seed = gspec.seed;
    for (int s = 0; s < gspec.sockets; ++s) {
      unit_group_[next_unit++] = static_cast<int>(groups_.size());
    }
    groups_.push_back(std::move(group));
    start_new_run(groups_.back());
  }
}

Cluster::Cluster(int total_units, const PerfModel& model)
    : model_(model), job_mode_(true) {
  if (total_units <= 0) {
    throw std::invalid_argument("Cluster: need total_units > 0");
  }
  resize_units(static_cast<std::size_t>(total_units));
  for (std::size_t u = 0; u < unit_group_.size(); ++u) {
    unit_group_[u] = -1;
    unit_done_[u] = 1;  // idle until a job binds the unit
  }
}

void Cluster::bind(std::size_t u, WorkloadInstance instance) {
  unit_total_work_[u] = instance.total_work();
  unit_active_[u] = instance.active() ? 1 : 0;
  unit_piece_[u] = WorkloadInstance::Piece{};  // the next lookup scans
  unit_instance_[u] = std::move(instance);
}

inline Watts Cluster::unit_demand(std::size_t u) {
  const Seconds progress = unit_progress_[u];
  const WorkloadInstance::Piece& piece = unit_piece_[u];
  if (piece.contains(progress)) return piece.demand(progress);
  const Watts demand = unit_instance_[u].demand_at(progress, &unit_hint_[u]);
  unit_piece_[u] = unit_instance_[u].piece(unit_hint_[u]);
  return demand;
}

int Cluster::start_job(const WorkloadSpec& spec, std::span<const int> units,
                       std::uint64_t seed) {
  if (!job_mode_) {
    throw std::logic_error("Cluster::start_job: not a job-mode cluster");
  }
  if (units.empty()) {
    throw std::invalid_argument("Cluster::start_job: empty allocation");
  }
  const int slot = static_cast<int>(jobs_.size());
  JobState job;
  job.active = true;
  job.units.assign(units.begin(), units.end());
  for (std::size_t i = 0; i < job.units.size(); ++i) {
    const auto u = static_cast<std::size_t>(job.units[i]);
    if (unit_job_slot_.at(u) >= 0) {
      throw std::invalid_argument("Cluster::start_job: unit already bound");
    }
    unit_job_slot_[u] = slot;
    unit_progress_[u] = 0.0;
    unit_hint_[u] = 0;
    unit_done_[u] = 0;
    // Realizations are keyed by position within the allocation, so a
    // job's jitter draw does not depend on which physical units the
    // placement handed it.
    bind(u, WorkloadInstance(spec,
                             mix_seed(seed, static_cast<std::uint64_t>(i))));
  }
  jobs_.push_back(std::move(job));
  return slot;
}

void Cluster::abort_job(int slot) {
  auto& job = jobs_.at(static_cast<std::size_t>(slot));
  if (!job.active) return;
  job.active = false;
  for (const int u : job.units) {
    const auto su = static_cast<std::size_t>(u);
    if (unit_job_slot_.at(su) != slot) continue;
    unit_job_slot_[su] = -1;
    unit_done_[su] = 1;
    bind(su, WorkloadInstance::idle(1.0));
  }
}

std::vector<int> Cluster::drain_finished_jobs() {
  std::vector<int> finished = std::move(finished_slots_);
  finished_slots_.clear();
  return finished;
}

int Cluster::busy_units() const {
  int busy = 0;
  for (const int slot : unit_job_slot_) {
    if (slot >= 0) ++busy;
  }
  return busy;
}

void Cluster::step_jobs(Seconds dt, std::span<const Watts> effective_caps,
                        std::span<Watts> true_power_out) {
  const std::size_t n = unit_group_.size();
  for (std::size_t u = 0; u < n; ++u) {
    if (unit_crashed_[u]) {
      unit_last_power_[u] = 0.0;
      true_power_out[u] = 0.0;
      continue;
    }
    Watts demand = kIdlePower;
    const bool running = unit_job_slot_[u] >= 0 && !unit_done_[u];
    if (running) {
      demand = unit_demand(u);
      const double speed = model_.speed(demand, effective_caps[u]);
      unit_progress_[u] += speed * dt;
      if (unit_progress_[u] >= unit_total_work_[u]) unit_done_[u] = 1;
    }
    const Watts drawn = unit_job_slot_[u] >= 0 && !unit_done_[u]
                            ? model_.power_drawn(demand, effective_caps[u])
                            : kIdlePower;
    unit_last_power_[u] = drawn;
    unit_energy_[u] += drawn * dt;
    true_power_out[u] = drawn;
  }

  now_ += dt;

  // A job retires when all of its units finished their realizations. A
  // crashed unit stalls its job until the scheduling runtime evicts it.
  for (std::size_t slot = 0; slot < jobs_.size(); ++slot) {
    auto& job = jobs_[slot];
    if (!job.active) continue;
    bool all_done = true;
    for (const int u : job.units) {
      const auto su = static_cast<std::size_t>(u);
      if (unit_crashed_[su] || !unit_done_[su]) {
        all_done = false;
        break;
      }
    }
    if (!all_done) continue;
    job.active = false;
    for (const int u : job.units) {
      const auto su = static_cast<std::size_t>(u);
      unit_job_slot_[su] = -1;
      bind(su, WorkloadInstance::idle(1.0));
      unit_done_[su] = 1;
    }
    finished_slots_.push_back(static_cast<int>(slot));
    ++jobs_completed_;
  }
}

void Cluster::start_new_run(GroupState& group) {
  if (!group.rotation.empty()) {
    group.current_workload_index = static_cast<int>(group.rotation_next);
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
    const auto u = static_cast<std::size_t>(group.first_unit + s);
    unit_progress_[u] = 0.0;
    unit_hint_[u] = 0;
    unit_done_[u] = 0;
    if (s < active) {
      // Each realization draws from its own RNG stream keyed by stable
      // coordinates, so the same engine seed yields bit-identical jitter
      // no matter what else (other groups, scheduled jobs) was
      // instantiated before it.
      bind(u, WorkloadInstance(
                  spec, mix_seed(group.seed,
                                 static_cast<std::uint64_t>(group.run_index),
                                 static_cast<std::uint64_t>(s))));
    } else {
      // Inactive sockets idle for the nominal duration; completion is
      // governed by the active sockets only.
      bind(u, WorkloadInstance::idle(spec.nominal_duration()));
      unit_done_[u] = 1;
    }
  }
}

void Cluster::step(Seconds dt, std::span<const Watts> effective_caps,
                   std::span<Watts> true_power_out) {
  const std::size_t n = unit_group_.size();
  if (effective_caps.size() != n || true_power_out.size() != n) {
    throw std::invalid_argument("Cluster::step: span size mismatch");
  }
  if (job_mode_) {
    step_jobs(dt, effective_caps, true_power_out);
    return;
  }

  // Groups own contiguous unit ranges, so walking group-by-group visits
  // units in ascending order (identical accumulation order to a flat
  // per-unit walk) while hoisting the per-group branches out of the
  // inner pass.
  for (auto& group : groups_) {
    const std::size_t begin = static_cast<std::size_t>(group.first_unit);
    const std::size_t end = begin + static_cast<std::size_t>(group.sockets);
    if (group.in_gap) {
      for (std::size_t u = begin; u < end; ++u) {
        if (unit_crashed_[u]) {
          unit_last_power_[u] = 0.0;
          true_power_out[u] = 0.0;
          continue;
        }
        unit_last_power_[u] = kIdlePower;
        unit_energy_[u] += kIdlePower * dt;
        true_power_out[u] = kIdlePower;
      }
      continue;
    }
    for (std::size_t u = begin; u < end; ++u) {
      if (unit_crashed_[u]) {
        // Dark node: no draw, no progress; the group's run stalls on it
        // until the restart.
        unit_last_power_[u] = 0.0;
        true_power_out[u] = 0.0;
        continue;
      }
      Watts demand = kIdlePower;
      if (!unit_done_[u]) {
        demand = unit_demand(u);
        const double speed = model_.speed(demand, effective_caps[u]);
        unit_progress_[u] += speed * dt;
        if (unit_progress_[u] >= unit_total_work_[u]) unit_done_[u] = 1;
      }
      const Watts drawn = unit_done_[u]
                              ? kIdlePower
                              : model_.power_drawn(demand, effective_caps[u]);
      unit_last_power_[u] = drawn;
      unit_energy_[u] += drawn * dt;
      true_power_out[u] = drawn;
      group.active_energy += drawn * dt;
    }
  }

  for (auto& group : groups_) {
    if (!group.in_gap) group.active_time += dt;
  }

  now_ += dt;

  // Group bookkeeping: finish runs whose active sockets are all done, and
  // count down inter-run gaps.
  for (auto& group : groups_) {
    if (group.in_gap) {
      group.gap_remaining -= dt;
      if (group.gap_remaining <= 0.0) start_new_run(group);
      continue;
    }
    bool all_done = true;
    const std::size_t begin = static_cast<std::size_t>(group.first_unit);
    const std::size_t end = begin + static_cast<std::size_t>(group.sockets);
    for (std::size_t u = begin; u < end; ++u) {
      if (unit_active_[u] && !unit_done_[u]) {
        all_done = false;
        break;
      }
    }
    if (all_done) {
      group.completions.push_back(
          Completion{group.run_start, now_, group.current_workload_index});
      group.in_gap = true;
      group.gap_remaining = group.current().inter_run_gap;
    }
  }
}

void Cluster::true_demands(std::span<Watts> out) const {
  const std::size_t n = unit_group_.size();
  if (out.size() != n) {
    throw std::invalid_argument("Cluster::true_demands: span size mismatch");
  }
  for (std::size_t u = 0; u < n; ++u) {
    if (unit_crashed_[u]) {
      out[u] = 0.0;
      continue;
    }
    if (job_mode_) {
      out[u] = unit_job_slot_[u] >= 0 && !unit_done_[u]
                   ? unit_instance_[u].demand_at(unit_progress_[u])
                   : kIdlePower;
      continue;
    }
    const auto& group = groups_[static_cast<std::size_t>(unit_group_[u])];
    out[u] = group.in_gap || unit_done_[u]
                 ? kIdlePower
                 : unit_instance_[u].demand_at(unit_progress_[u]);
  }
}

const std::vector<Completion>& Cluster::completions(int g) const {
  return groups_.at(g).completions;
}

int Cluster::min_completions() const {
  if (job_mode_) return jobs_completed_;
  int min_runs = static_cast<int>(groups_.front().completions.size());
  for (const auto& group : groups_) {
    min_runs = std::min(min_runs, static_cast<int>(group.completions.size()));
  }
  return min_runs;
}

Watts Cluster::mean_true_power(int u) const {
  if (now_ <= 0.0) return 0.0;
  return unit_energy_.at(static_cast<std::size_t>(u)) / now_;
}

Watts Cluster::group_mean_power(int g) const {
  const auto& group = groups_.at(g);
  if (group.active_time <= 0.0) return 0.0;
  return group.active_energy /
         (group.active_time * static_cast<double>(group.sockets));
}

const WorkloadSpec& Cluster::group_workload(int g) const {
  return groups_.at(g).spec;
}

}  // namespace dps
