#include "managers/mimd.hpp"

#include <algorithm>
#include <stdexcept>

namespace dps {

MimdConfig slurm_plugin_defaults() {
  MimdConfig config;
  config.inc_threshold = 0.95;
  config.dec_threshold = 0.90;
  config.inc_percentile = 1.20;
  config.dec_percentile = 0.50;
  config.dec_floor_margin = 1.0;
  config.decision_interval_steps = 1;
  config.dec_window_steps = 20;
  return config;
}

MimdController::MimdController(const MimdConfig& config)
    : config_(config),
      rng_(config.shuffle_seed),
      power_windows_(static_cast<std::size_t>(
          config.dec_window_steps < 1 ? 1 : config.dec_window_steps)) {
  if (config_.inc_threshold <= config_.dec_threshold) {
    throw std::invalid_argument("MimdConfig: inc_threshold must exceed dec");
  }
  if (config_.inc_percentile <= 1.0 || config_.dec_percentile >= 1.0 ||
      config_.dec_percentile <= 0.0) {
    throw std::invalid_argument("MimdConfig: bad percentiles");
  }
  if (config_.decision_interval_steps < 1 || config_.dec_window_steps < 1) {
    throw std::invalid_argument("MimdConfig: intervals must be >= 1");
  }
}

void MimdController::reset(const ManagerContext& ctx) {
  ctx_ = ctx;
  order_.resize(static_cast<std::size_t>(ctx.num_units));
  set_flags_.assign(static_cast<std::size_t>(ctx.num_units), false);
  power_windows_.reset(static_cast<std::size_t>(ctx.num_units));
  averaged_power_.assign(static_cast<std::size_t>(ctx.num_units), 0.0);
  steps_since_decision_ = 0;
}

void MimdController::save_state(ByteWriter& out) const {
  rng_.save(out);
  out.bools(set_flags_);
  out.doubles(averaged_power_);
  out.i64(steps_since_decision_);
  out.u64(power_windows_.units());
  power_windows_.save(out);  // the former per-window bytes
}

void MimdController::load_state(ByteReader& in) {
  rng_.load(in);
  auto set_flags = in.bools();
  auto averaged_power = in.doubles();
  const auto steps_since_decision = static_cast<int>(in.i64());
  const std::uint64_t windows = in.u64();
  if (windows != power_windows_.units() ||
      set_flags.size() != power_windows_.units() ||
      averaged_power.size() != power_windows_.units()) {
    throw std::runtime_error("MimdController: snapshot unit count mismatch");
  }
  power_windows_.load(in);
  set_flags_ = std::move(set_flags);
  averaged_power_ = std::move(averaged_power);
  steps_since_decision_ = steps_since_decision;
}

void MimdController::decide(std::span<const Watts> power,
                            std::span<Watts> caps) {
  const std::size_t n = power_windows_.units();
  if (power.size() != n || caps.size() != n) {
    throw std::invalid_argument("MimdController::decide: size mismatch");
  }
  std::fill(set_flags_.begin(), set_flags_.end(), false);

  // Hardware sanity: no cap above its unit's TDP (matters on
  // heterogeneous fleets, where untouched caps could otherwise park budget
  // a small socket can never draw). Then shed any overshoot a runtime
  // budget cut left behind.
  for (std::size_t u = 0; u < n; ++u) {
    caps[u] = std::min(caps[u], ctx_.tdp_of(static_cast<int>(u)));
  }
  enforce_budget(caps, ctx_.total_budget, ctx_.min_cap);

  // Window-average the readings for the decrease side (the plugin lowers
  // caps from energy counters accumulated over its balance window, not
  // from instantaneous samples).
  power_windows_.push(power);
  power_windows_.means(averaged_power_);

  // Coarse rebalance cadence (SLURM's balance_interval): off-cycle calls
  // leave the caps exactly as they are.
  if (++steps_since_decision_ < config_.decision_interval_steps) return;
  steps_since_decision_ = 0;

  // First loop: decrease caps of units whose *windowed* power sits below
  // the decrease threshold, but never below that average draw or the
  // hardware minimum. A unit pinned at its cap right now is exempt — its
  // window still remembers an idle stretch, but lowering a maxed-out unit
  // would fight the increase loop and throttle its recovery.
  for (std::size_t u = 0; u < n; ++u) {
    if (power[u] >= caps[u] * config_.inc_threshold) continue;
    if (averaged_power_[u] < caps[u] * config_.dec_threshold) {
      const Watts floor = averaged_power_[u] * config_.dec_floor_margin;
      const Watts lowered =
          std::min(caps[u], std::max(floor, caps[u] * config_.dec_percentile));
      caps[u] = std::clamp(lowered, ctx_.min_cap,
                            ctx_.tdp_of(static_cast<int>(u)));
      set_flags_[u] = true;
    }
  }

  // Second loop: spend freed budget on units pressing against their caps,
  // visiting units in random order so none is structurally favoured.
  Watts avail = ctx_.total_budget;
  for (std::size_t u = 0; u < n; ++u) avail -= caps[u];

  shuffle_indices(rng_, order_.data(), static_cast<std::uint32_t>(n));
  for (std::size_t i = 0; i < n && avail > 0.0; ++i) {
    const std::size_t u = order_[i];
    if (power[u] > caps[u] * config_.inc_threshold) {
      const Watts want = std::min(caps[u] * config_.inc_percentile,
                                  ctx_.tdp_of(static_cast<int>(u)));
      const Watts granted = std::min(want, caps[u] + avail);
      if (granted > caps[u]) {
        avail -= granted - caps[u];
        caps[u] = granted;
        set_flags_[u] = true;
      }
    }
  }
}

}  // namespace dps
