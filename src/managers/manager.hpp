#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "obs/sink.hpp"
#include "power/power_interface.hpp"
#include "util/bytes.hpp"

namespace dps {

/// Static facts a power manager learns when it takes over a system.
struct ManagerContext {
  int num_units = 0;
  /// Cluster-wide power budget the manager must never exceed (sum of caps).
  Watts total_budget = 0.0;
  /// Per-unit hardware maximum cap (TDP) for homogeneous fleets.
  Watts tdp = 165.0;
  /// Per-unit hardware minimum cap.
  Watts min_cap = 40.0;
  /// Decision-loop period.
  Seconds dt = 1.0;
  /// Heterogeneous fleets: per-unit TDPs (size num_units). Empty means
  /// every unit uses `tdp`. Managers clamp each unit's cap at tdp_of(u),
  /// so budget is never parked on a socket that cannot draw it.
  std::vector<Watts> unit_tdp{};

  /// The hardware maximum cap of unit `u`.
  Watts tdp_of(int u) const {
    return unit_tdp.empty() ? tdp : unit_tdp[static_cast<std::size_t>(u)];
  }

  /// The constant-allocation cap: budget divided evenly across units. This
  /// is both the constant baseline's assignment and DPS's restore target
  /// (Algorithm 3's initial_cap).
  Watts constant_cap() const {
    return num_units > 0 ? total_budget / num_units : 0.0;
  }
};

/// A cluster-level power manager: each decision step it observes every
/// unit's measured power and rewrites the per-unit caps. Implementations
/// must keep the sum of caps within the context's total budget.
class PowerManager {
 public:
  virtual ~PowerManager() = default;

  virtual std::string_view name() const = 0;

  /// (Re-)initializes the manager for a system. Called once before the
  /// first decide(); implementations should assume caps start at the
  /// constant allocation.
  virtual void reset(const ManagerContext& ctx) = 0;

  /// One decision step. `power` holds the units' measured power over the
  /// last period; `caps` holds the current caps on entry and must hold the
  /// new caps on return. A manager that keeps per-unit state throws
  /// std::invalid_argument unless both hold reset()'s unit count.
  virtual void decide(std::span<const Watts> power,
                      std::span<Watts> caps) = 0;

  /// Informs the manager that the cluster-wide budget changed at runtime —
  /// an operator action or a facility power emergency (the oversubscribed
  /// data-center scenario of the paper's Related Work). The manager must
  /// honour the new budget from its next decide() *without* discarding any
  /// accumulated state; when the budget shrank below the current cap sum,
  /// the next decide() must shed the excess.
  virtual void update_budget(Watts new_total_budget) = 0;

  /// Attaches an observability sink (src/obs/). Called by whoever hosts
  /// the manager — the simulation engine or the control server — before
  /// the decision loop starts. Stateful managers override this to emit
  /// events (evictions, re-admissions) and feed profiling histograms; the
  /// default ignores it, and a default-constructed (disabled) sink makes
  /// every instrumentation call a null-check no-op.
  virtual void set_obs(const obs::ObsSink& /*sink*/) {}

  /// Checkpoint support (src/core/checkpoint.hpp). save_state serializes
  /// every decision-relevant internal so a freshly reset() manager that
  /// load_state()s the bytes continues bit-identically; load_state must be
  /// called after reset() with the same unit count and may throw
  /// std::runtime_error on a mismatching snapshot. The defaults write and
  /// read nothing — a manager whose decisions depend only on the current
  /// measurements (the constant baseline) restarts cold by construction.
  virtual void save_state(ByteWriter& /*out*/) const {}
  virtual void load_state(ByteReader& /*in*/) {}
};

/// Shared emergency-shedding helper: when the sum of caps exceeds the
/// budget (after a budget cut), scales all caps down proportionally,
/// respecting the hardware minimum. Returns true if it had to intervene.
bool enforce_budget(std::span<Watts> caps, Watts total_budget,
                    Watts min_cap);

}  // namespace dps
