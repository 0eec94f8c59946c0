#include "sim/cluster.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dps {

void Cluster::resize_units(std::size_t n) {
  const WorkloadInstance idle = WorkloadInstance::idle(1.0);
  unit_instance_.assign(n, idle);
  unit_group_.assign(n, 0);
  unit_progress_.assign(n, 0.0);
  unit_piece_.assign(n, WorkloadInstance::Piece{});
  unit_active_.assign(n, idle.active() ? 1 : 0);
  unit_energy_.assign(n, 0.0);
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
  groups_.reserve(groups.size());
  std::size_t next_unit = 0;
  for (auto& gspec : groups) {
    GroupState group;
    group.spec = std::move(gspec.workload);
    group.rotation = std::move(gspec.rotation);
    group.first_unit = static_cast<int>(next_unit);
    group.sockets = gspec.sockets;
    group.seed = gspec.seed;
    for (int s = 0; s < gspec.sockets; ++s) {
      unit_group_[next_unit++] = static_cast<int>(groups_.size());
    }
    groups_.push_back(std::move(group));
    start_new_run(groups_.back(), now_);
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
  unit_progress_[u] = 0.0;
  unit_active_[u] = instance.active() ? 1 : 0;
  // A realization without pieces idles until its first step ends it.
  WorkloadInstance::Piece& piece = unit_piece_[u];
  piece = WorkloadInstance::Piece{};
  piece.start_power = kIdlePower;
  instance.next(&piece);
  unit_instance_[u] = std::move(instance);
}

void Cluster::advance(std::size_t u) {
  WorkloadInstance::Piece& piece = unit_piece_[u];
  while (unit_progress_[u] >= piece.end) {
    if (!unit_instance_[u].next(&piece)) {
      // The last piece ends at the realization's total work.
      unit_done_[u] = 1;
      return;
    }
  }
}

void Cluster::start_job(int job, WorkloadSpec spec,
                        std::span<const int> units, std::uint64_t seed) {
  if (!job_mode_) {
    throw std::logic_error("Cluster::start_job: not a job-mode cluster");
  }
  if (units.empty()) {
    throw std::invalid_argument("Cluster::start_job: empty allocation");
  }
  for (const JobState& running : running_jobs_) {
    if (running.id == job) {
      throw std::invalid_argument("Cluster::start_job: job already running");
    }
  }
  // Claim every unit before binding any, so a refused allocation leaves
  // no unit bound.
  for (std::size_t i = 0; i < units.size(); ++i) {
    const auto u = static_cast<std::size_t>(units[i]);
    if (u >= unit_active_.size() || unit_active_[u]) {
      for (std::size_t j = 0; j < i; ++j) {
        unit_active_[static_cast<std::size_t>(units[j])] = 0;
      }
      throw std::invalid_argument(
          "Cluster::start_job: unit out of range or already bound");
    }
    unit_active_[u] = 1;
  }
  JobState& state = running_jobs_.emplace_back();
  state.id = job;
  state.units.assign(units.begin(), units.end());
  // The job owns the spec its instances refer to.
  state.spec = std::make_unique<const WorkloadSpec>(std::move(spec));
  for (std::size_t i = 0; i < units.size(); ++i) {
    const auto u = static_cast<std::size_t>(units[i]);
    unit_done_[u] = 0;
    // Realizations are keyed by position within the allocation, so a
    // job's jitter draw does not depend on which physical units the
    // placement handed it.
    bind(u, WorkloadInstance(*state.spec,
                             mix_seed(seed, static_cast<std::uint64_t>(i))));
  }
}

void Cluster::release(const JobState& job) {
  for (const int u : job.units) {
    const auto su = static_cast<std::size_t>(u);
    bind(su, WorkloadInstance::idle(1.0));
    unit_done_[su] = 1;
  }
}

void Cluster::abort_job(int job) {
  const auto it =
      std::find_if(running_jobs_.begin(), running_jobs_.end(),
                   [&](const JobState& running) { return running.id == job; });
  if (it == running_jobs_.end()) return;
  release(*it);
  running_jobs_.erase(it);
}

std::vector<int> Cluster::drain_finished_jobs() {
  std::vector<int> finished = std::move(finished_jobs_);
  finished_jobs_.clear();
  return finished;
}

void Cluster::end_step(Seconds dt) {
  now_ += dt;
  // A job retires once all of its units finished their realizations. A
  // crashed unit stalls its job until the scheduling runtime aborts it.
  for (auto job = running_jobs_.begin(); job != running_jobs_.end();) {
    const bool all_done =
        std::all_of(job->units.begin(), job->units.end(), [&](int u) {
          const auto su = static_cast<std::size_t>(u);
          return unit_done_[su] && !unit_crashed_[su];
        });
    if (!all_done) {
      ++job;
      continue;
    }
    release(*job);
    finished_jobs_.push_back(job->id);
    ++jobs_completed_;
    job = running_jobs_.erase(job);
  }
}

void Cluster::start_new_run(GroupState& group, Seconds now) {
  if (!group.rotation.empty()) {
    group.current_workload_index = static_cast<int>(group.rotation_next);
    group.rotation_next = (group.rotation_next + 1) % group.rotation.size();
  }
  const WorkloadSpec& spec = group.current();
  const int active = spec.active_sockets > 0
                         ? std::min(spec.active_sockets, group.sockets)
                         : group.sockets;
  group.run_start = now;
  group.in_gap = false;
  ++group.run_index;
  for (int s = 0; s < group.sockets; ++s) {
    const auto u = static_cast<std::size_t>(group.first_unit + s);
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
  step_block(StepBlock{0, num_groups(), 0, total_units()}, dt, effective_caps,
             true_power_out);
  end_step(dt);
}

std::vector<Cluster::StepBlock> Cluster::step_blocks(int min_units) const {
  if (job_mode_) return {StepBlock{0, 0, 0, total_units()}};
  std::vector<StepBlock> blocks;
  StepBlock block;
  for (int g = 0; g < num_groups(); ++g) {
    const GroupState& group = groups_[static_cast<std::size_t>(g)];
    block.last_group = g + 1;
    block.last_unit = group.first_unit + group.sockets;
    if (block.last_unit - block.first_unit >= min_units) {
      blocks.push_back(block);
      block = StepBlock{g + 1, g + 1, block.last_unit, block.last_unit};
    }
  }
  if (block.last_group > block.first_group) blocks.push_back(block);
  return blocks;
}

Watts Cluster::step_unit(std::size_t u, Seconds dt, Watts cap) {
  // Dark node: no draw, no progress; its run or job stalls on it until
  // the restart.
  if (unit_crashed_[u]) return 0.0;
  Watts demand = kIdlePower;
  if (!unit_done_[u]) {
    demand = unit_piece_[u].demand(unit_progress_[u]);
    unit_progress_[u] += model_.speed(demand, cap) * dt;
    if (unit_progress_[u] >= unit_piece_[u].end) advance(u);
  }
  const Watts drawn =
      unit_done_[u] ? kIdlePower : model_.power_drawn(demand, cap);
  unit_energy_[u] += drawn * dt;
  return drawn;
}

void Cluster::step_block(const StepBlock& block, Seconds dt,
                         std::span<const Watts> effective_caps,
                         std::span<Watts> true_power_out) {
  const std::size_t n = unit_group_.size();
  if (effective_caps.size() != n || true_power_out.size() != n) {
    throw std::invalid_argument("Cluster::step: span size mismatch");
  }
  if (!job_mode_) {
    const Seconds end = now_ + dt;
    for (int g = block.first_group; g < block.last_group; ++g) {
      step_group(groups_[static_cast<std::size_t>(g)], dt, end,
                 effective_caps, true_power_out);
    }
    return;
  }
  // Job mode: the units' physics; their jobs retire in end_step().
  for (auto u = static_cast<std::size_t>(block.first_unit);
       u < static_cast<std::size_t>(block.last_unit); ++u) {
    true_power_out[u] = step_unit(u, dt, effective_caps[u]);
  }
}

void Cluster::step_group(GroupState& group, Seconds dt, Seconds end,
                         std::span<const Watts> effective_caps,
                         std::span<Watts> true_power_out) {
  const std::size_t begin = static_cast<std::size_t>(group.first_unit);
  const std::size_t stop = begin + static_cast<std::size_t>(group.sockets);
  if (group.in_gap) {
    // Every unit is done, so it idles.
    for (std::size_t u = begin; u < stop; ++u) {
      true_power_out[u] = step_unit(u, dt, effective_caps[u]);
    }
    // Count down the inter-run gap.
    group.gap_remaining -= dt;
    if (group.gap_remaining <= 0.0) start_new_run(group, end);
    return;
  }
  for (std::size_t u = begin; u < stop; ++u) {
    const Watts drawn = step_unit(u, dt, effective_caps[u]);
    true_power_out[u] = drawn;
    group.active_energy += drawn * dt;
  }
  group.active_time += dt;

  // The run finishes once its active sockets are all done.
  for (std::size_t u = begin; u < stop; ++u) {
    if (unit_active_[u] && !unit_done_[u]) return;
  }
  group.completions.push_back(
      Completion{group.run_start, end, group.current_workload_index});
  group.in_gap = true;
  group.gap_remaining = group.current().inter_run_gap;
}

void Cluster::true_demands(std::span<Watts> out) const {
  const std::size_t n = unit_group_.size();
  if (out.size() != n) {
    throw std::invalid_argument("Cluster::true_demands: span size mismatch");
  }
  for (std::size_t u = 0; u < n; ++u) {
    out[u] = unit_crashed_[u] ? 0.0
             : unit_done_[u]  ? kIdlePower
                              : unit_piece_[u].demand(unit_progress_[u]);
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
