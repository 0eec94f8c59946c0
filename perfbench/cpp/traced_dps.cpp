#include "traced_dps.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {
namespace {

const SpanName kHistory("core.history");
const SpanName kPriority("core.priority");
const SpanName kMimd("managers.mimd");
const SpanName kReadjust("core.readjust");

void count_dps(Tracer& tracer, bool restored, const std::vector<bool>& priorities) {
  tracer.count(Count::kDpsDecides, 1.0);
  tracer.count(Count::kRestores, restored ? 1.0 : 0.0);
  tracer.count(Count::kDpsUnits, static_cast<double>(priorities.size()));
  tracer.count(Count::kHighPriority,
               static_cast<double>(std::count(priorities.begin(), priorities.end(), true)));
}

}  // namespace

TracedDps::TracedDps(const dps::DpsConfig& config, const SpanName& span)
    : config_(config),
      span_(span),
      stateless_(config.mimd),
      history_(config),
      priority_(config),
      readjuster_(config) {
  if (!config.use_priority_module || !config.use_restore) {
    throw std::invalid_argument("TracedDps: ablated pipelines are not traced");
  }
}

void TracedDps::reset(const dps::ManagerContext& ctx) {
  ctx_ = ctx;
  stateless_.reset(ctx);
  history_.reset(ctx.num_units);
  priority_.reset(ctx.num_units);
  readjuster_.reset(ctx);
  silent_streak_.assign(static_cast<std::size_t>(ctx.num_units), 0);
  evicted_.assign(static_cast<std::size_t>(ctx.num_units), false);
}

void TracedDps::update_budget(dps::Watts new_total_budget) {
  ctx_.total_budget = new_total_budget;
  stateless_.update_budget(new_total_budget);
  readjuster_.update_budget(new_total_budget);
}

void TracedDps::decide(std::span<const dps::Watts> power, std::span<dps::Watts> caps) {
  bool restored = false;
  {
    ScopedSpan whole(span_);
    {
      ScopedSpan s(kHistory);
      history_.observe(power, ctx_.dt);
    }
    {
      ScopedSpan s(kPriority);
      priority_.update(history_, caps);
    }
    {
      ScopedSpan s(kMimd);
      stateless_.decide(power, caps);
    }
    {
      ScopedSpan s(kReadjust);
      restored = readjuster_.apply(power, priority_.priorities(), caps);
    }
    if (config_.evict_unresponsive) update_evictions(power, caps);
  }
  if (Tracer* tracer = Tracer::active()) count_dps(*tracer, restored, priority_.priorities());
}

// Copy of DpsManager::update_evictions without its observability events.
void TracedDps::update_evictions(std::span<const dps::Watts> power,
                                 std::span<dps::Watts> caps) {
  const std::size_t n = caps.size();
  bool any_evicted = false;
  for (std::size_t u = 0; u < n; ++u) {
    if (power[u] < config_.unresponsive_power_floor) {
      if (silent_streak_[u] < static_cast<int>(config_.unresponsive_steps)) {
        ++silent_streak_[u];
      }
    } else {
      silent_streak_[u] = 0;
      evicted_[u] = false;
    }
    if (!evicted_[u] && silent_streak_[u] >= static_cast<int>(config_.unresponsive_steps)) {
      evicted_[u] = true;
    }
    any_evicted = any_evicted || evicted_[u];
  }
  if (!any_evicted) return;

  dps::Watts freed = 0.0;
  dps::Watts live_headroom = 0.0;
  for (std::size_t u = 0; u < n; ++u) {
    if (evicted_[u]) {
      freed += std::max(0.0, caps[u] - ctx_.min_cap);
      caps[u] = ctx_.min_cap;
    } else {
      live_headroom += std::max(0.0, ctx_.tdp_of(static_cast<int>(u)) - caps[u]);
    }
  }
  if (freed <= 0.0 || live_headroom <= 0.0) return;
  const double scale = std::min(1.0, freed / live_headroom);
  for (std::size_t u = 0; u < n; ++u) {
    if (evicted_[u]) continue;
    const dps::Watts headroom = std::max(0.0, ctx_.tdp_of(static_cast<int>(u)) - caps[u]);
    caps[u] += headroom * scale;
  }
}

TimedManager::TimedManager(std::unique_ptr<dps::PowerManager> inner, const SpanName& span,
                           bool inherit_main)
    : owned_(std::move(inner)),
      inner_(*owned_),
      span_(span),
      inherit_main_(inherit_main),
      dps_(dynamic_cast<const dps::DpsManager*>(&inner_)) {}

TimedManager::TimedManager(dps::PowerManager& inner, const SpanName& span)
    : inner_(inner),
      span_(span),
      inherit_main_(false),
      dps_(dynamic_cast<const dps::DpsManager*>(&inner_)) {}

void TimedManager::decide(std::span<const dps::Watts> power, std::span<dps::Watts> caps) {
  {
    ScopedSpan s(span_, inherit_main_);
    inner_.decide(power, caps);
  }
  Tracer* tracer = Tracer::active();
  if (tracer != nullptr && dps_ != nullptr) {
    count_dps(*tracer, dps_->last_step_restored(), dps_->priorities().priorities());
  }
}

std::vector<double> StepTimer::step_us() const {
  std::vector<double> us;
  for (std::size_t i = 1; i < stamps_.size(); ++i) {
    us.push_back(std::chrono::duration<double, std::micro>(stamps_[i] - stamps_[i - 1]).count());
  }
  return us;
}

}  // namespace perfbench
