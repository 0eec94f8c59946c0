#include "core/dps_manager.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/phase.hpp"

namespace dps {

DpsManager::DpsManager(const DpsConfig& config)
    : config_(config),
      stateless_(config.mimd),
      history_(config),
      priority_(config),
      readjuster_(config) {}

void DpsManager::reset(const ManagerContext& ctx) {
  ctx_ = ctx;
  stateless_.reset(ctx);
  history_.reset(ctx.num_units);
  priority_.reset(ctx.num_units);
  readjuster_.reset(ctx);
  last_restored_ = false;
  silent_streak_.assign(static_cast<std::size_t>(ctx.num_units), 0);
  evicted_.assign(static_cast<std::size_t>(ctx.num_units), false);
  prev_priorities_.assign(static_cast<std::size_t>(ctx.num_units), false);
  ablation_no_priorities_.assign(static_cast<std::size_t>(ctx.num_units),
                                 false);
}

void DpsManager::set_obs(const obs::ObsSink& sink) {
  obs_ = sink;
  obs_promotions_ = sink.counter(
      "dps_priority_promotions_total", "Units flipped low -> high priority");
  obs_demotions_ = sink.counter(
      "dps_priority_demotions_total", "Units flipped high -> low priority");
  obs_restore_rounds_ = sink.counter(
      "dps_restore_rounds_total",
      "Decision steps that restored all caps to constant (Algorithm 3)");
  obs_evictions_ = sink.counter(
      "dps_evictions_total", "Units evicted from the pool as unresponsive");
  obs_readmissions_ = sink.counter(
      "dps_readmissions_total", "Evicted units re-admitted after power-on");
}

void DpsManager::save_state(ByteWriter& out) const {
  stateless_.save_state(out);
  history_.save(out);
  priority_.save(out);
  out.boolean(last_restored_);
  out.ints(silent_streak_);
  out.bools(evicted_);
  out.bools(prev_priorities_);
}

void DpsManager::load_state(ByteReader& in) {
  stateless_.load_state(in);
  history_.load(in);
  priority_.load(in);
  last_restored_ = in.boolean();
  auto silent_streak = in.ints();
  auto evicted = in.bools();
  auto prev_priorities = in.bools();
  if (silent_streak.size() != silent_streak_.size() ||
      evicted.size() != evicted_.size() ||
      prev_priorities.size() != prev_priorities_.size()) {
    throw std::runtime_error("DpsManager: snapshot unit count mismatch");
  }
  silent_streak_ = std::move(silent_streak);
  evicted_ = std::move(evicted);
  prev_priorities_ = std::move(prev_priorities);
}

void DpsManager::update_budget(Watts new_total_budget) {
  ctx_.total_budget = new_total_budget;
  stateless_.update_budget(new_total_budget);
  readjuster_.update_budget(new_total_budget);
}

void DpsManager::decide(std::span<const Watts> power, std::span<Watts> caps) {
  if (power.size() != static_cast<std::size_t>(ctx_.num_units) ||
      caps.size() != power.size()) {
    throw std::invalid_argument("DpsManager::decide: size mismatch");
  }
  // State update: filter the noisy measurements into the power history.
  obs::PhaseClock clock(obs_, obs::Phase::kCoreHistory);
  history_.observe(power, ctx_.dt);

  // Power dynamics -> priorities, judged against the caps that produced
  // the measurements (this step's rewrite has not happened yet).
  if (config_.use_priority_module) {
    clock.enter(obs::Phase::kCorePriority);
    priority_.update(history_, caps);
    if (obs_promotions_ != nullptr) count_priority_flips();
  }

  // Temporary allocation from the stateless module, exactly what the SLURM
  // baseline would do.
  clock.enter(obs::Phase::kManagersMimd);
  stateless_.decide(power, caps);

  // Restore / readjust the stateless module's caps using the priorities.
  // Ablated, DPS degenerates to the stateless system (plus restore): no
  // unit is high priority, so readjusting leaves the caps as they are.
  clock.enter(obs::Phase::kCoreReadjust);
  last_restored_ = readjuster_.apply(
      power,
      config_.use_priority_module ? priority_.priorities()
                                  : ablation_no_priorities_,
      caps);
  if (last_restored_ && obs_restore_rounds_ != nullptr) {
    obs_restore_rounds_->add();
  }

  // Resilience hardening, after the paper's pipeline: a unit that stays
  // dark despite holding a cap is dead hardware, not a quiet workload —
  // park it at the minimum and let the living spend its watts. Runs last
  // so a restore cannot hand a dead unit the constant cap back.
  if (config_.evict_unresponsive) {
    clock.enter(obs::Phase::kCoreEvict);
    update_evictions(power, caps);
  }
}

void DpsManager::count_priority_flips() {
  const auto& priorities = priority_.priorities();
  const std::size_t n =
      std::min(priorities.size(), prev_priorities_.size());
  for (std::size_t u = 0; u < n; ++u) {
    if (priorities[u] == prev_priorities_[u]) continue;
    if (priorities[u]) {
      obs_promotions_->add();
    } else {
      obs_demotions_->add();
    }
    prev_priorities_[u] = priorities[u];
  }
}

void DpsManager::update_evictions(std::span<const Watts> power,
                                  std::span<Watts> caps) {
  const std::size_t n = caps.size();
  bool any_evicted = false;
  for (std::size_t u = 0; u < n; ++u) {
    if (power[u] < config_.unresponsive_power_floor) {
      if (silent_streak_[u] <
          static_cast<int>(config_.unresponsive_steps)) {
        ++silent_streak_[u];
      }
    } else {
      // Power came back: the node restarted. Re-admit immediately; the
      // normal pipeline regrows its cap from the minimum.
      silent_streak_[u] = 0;
      if (evicted_[u]) {
        evicted_[u] = false;
        if (obs_readmissions_ != nullptr) obs_readmissions_->add();
        obs_.event(obs::EventKind::kReadmit, static_cast<std::int32_t>(u));
      }
    }
    if (!evicted_[u] && silent_streak_[u] >=
                            static_cast<int>(config_.unresponsive_steps)) {
      evicted_[u] = true;
      if (obs_evictions_ != nullptr) obs_evictions_->add();
      obs_.event(obs::EventKind::kEvict, static_cast<std::int32_t>(u),
                 caps[u]);
    }
    any_evicted = any_evicted || evicted_[u];
  }
  if (!any_evicted) return;

  // Reclaim: evicted units keep only the hardware-minimum cap (RAPL will
  // not accept less), everything above it is freed.
  Watts freed = 0.0;
  Watts live_headroom = 0.0;
  for (std::size_t u = 0; u < n; ++u) {
    if (evicted_[u]) {
      freed += std::max(0.0, caps[u] - ctx_.min_cap);
      caps[u] = ctx_.min_cap;
    } else {
      live_headroom +=
          std::max(0.0, ctx_.tdp_of(static_cast<int>(u)) - caps[u]);
    }
  }
  if (freed <= 0.0 || live_headroom <= 0.0) return;

  // Redistribute proportionally to headroom: each live unit gets at most
  // its distance to TDP, so no cap overshoots the hardware and the sum
  // never grows beyond what was freed (budget stays respected).
  const double scale = std::min(1.0, freed / live_headroom);
  for (std::size_t u = 0; u < n; ++u) {
    if (evicted_[u]) continue;
    const Watts headroom =
        std::max(0.0, ctx_.tdp_of(static_cast<int>(u)) - caps[u]);
    caps[u] += headroom * scale;
  }
}

}  // namespace dps
