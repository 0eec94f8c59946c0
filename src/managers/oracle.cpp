#include "managers/oracle.hpp"

#include <algorithm>
#include <stdexcept>

namespace dps {

OracleManager::OracleManager(DemandProbe demand_probe, Watts headroom)
    : demand_probe_(std::move(demand_probe)), headroom_(headroom) {
  if (!demand_probe_) {
    throw std::invalid_argument("OracleManager: demand probe required");
  }
}

void OracleManager::reset(const ManagerContext& ctx) {
  ctx_ = ctx;
  demands_.assign(static_cast<std::size_t>(ctx.num_units), 0.0);
}

void OracleManager::decide(std::span<const Watts> power,
                           std::span<Watts> caps) {
  // The oracle looks straight at demand; `power` only has to fit.
  const std::size_t n = demands_.size();
  if (power.size() != n || caps.size() != n) {
    throw std::invalid_argument("OracleManager::decide: size mismatch");
  }
  demand_probe_(demands_);

  // Desired cap: demand plus headroom, within hardware limits.
  Watts desired_sum = 0.0;
  for (std::size_t u = 0; u < n; ++u) {
    caps[u] = std::clamp(demands_[u] + headroom_, ctx_.min_cap,
                         ctx_.tdp_of(static_cast<int>(u)));
    desired_sum += caps[u];
  }
  if (desired_sum <= ctx_.total_budget) return;

  // Over budget: scale allocations proportionally to desire, respecting the
  // hardware minimum. Units pinned at min_cap shrink the budget available
  // to the rest, so iterate until the pinned set is stable.
  std::vector<bool> pinned(n, false);
  for (int pass = 0; pass < static_cast<int>(n) + 1; ++pass) {
    Watts pinned_total = 0.0;
    Watts unpinned_desire = 0.0;
    for (std::size_t u = 0; u < n; ++u) {
      if (pinned[u]) {
        pinned_total += ctx_.min_cap;
      } else {
        unpinned_desire += caps[u];
      }
    }
    const Watts budget_left = ctx_.total_budget - pinned_total;
    if (unpinned_desire <= 0.0) break;
    const double scale = budget_left / unpinned_desire;
    bool newly_pinned = false;
    for (std::size_t u = 0; u < n; ++u) {
      if (!pinned[u] && caps[u] * scale < ctx_.min_cap) {
        pinned[u] = true;
        newly_pinned = true;
      }
    }
    if (!newly_pinned) {
      for (std::size_t u = 0; u < n; ++u) {
        caps[u] = pinned[u] ? ctx_.min_cap : caps[u] * scale;
      }
      break;
    }
  }
}

}  // namespace dps
