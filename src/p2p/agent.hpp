#pragma once

#include "power/power_interface.hpp"
#include "signal/kalman.hpp"
#include "signal/rolling.hpp"

namespace dps {

/// Tunables of the peer-to-peer power agents.
struct P2pConfig {
  /// Length of each agent's local power history, in decision steps.
  std::size_t history_length = 20;
  double kf_process_variance = 4.0;
  double kf_measurement_variance = 4.0;
  /// Local derivative thresholds (same rationale as DpsConfig's).
  double deriv_inc_threshold = 2.0;
  double deriv_dec_threshold = -4.0;
  std::size_t deriv_length = 3;
  /// Fraction of the agent's surplus (budget minus draw, beyond a safety
  /// margin) it is willing to donate in one exchange.
  double donate_fraction = 0.5;
  /// Watts of headroom the agent keeps above its own draw when donating.
  Watts keep_margin = 8.0;
  /// A hungry agent asks for budget up to this target above its draw.
  Watts want_margin = 25.0;
};

/// One node's autonomous power agent — the decentralized counterpart of
/// DPS, in the spirit of the Penelope peer-to-peer manager the paper cites
/// (ref [43]). Each agent owns a slice of the cluster budget, caps its own
/// unit at exactly that slice, and decides from its *local* power dynamics
/// whether it is a donor (power falling / far below budget) or a requester
/// (power rising or pinned at its slice). Budget moves only through the
/// pairwise exchange in ExchangeNetwork, which conserves the cluster total
/// by construction — no central coordinator ever sees the whole system.
class PowerAgent {
 public:
  PowerAgent(int id, Watts initial_budget, Watts min_cap, Watts tdp,
             const P2pConfig& config = {});

  /// One local control step: filters the measurement into the agent's
  /// history and recomputes its donor/requester stance. Returns the cap to
  /// enforce on the agent's unit (== its current budget slice).
  Watts observe(Watts measured_power);

  /// Watts this agent is willing to give away right now.
  Watts offer() const;

  /// Watts this agent wants right now.
  Watts request() const;

  /// Exchange settlement: moves `amount` of budget into (+) or out of (-)
  /// this agent. Clamped to the hardware range by the caller's protocol
  /// (the exchange never produces out-of-range slices).
  void settle(Watts amount);

  Watts budget() const { return budget_; }
  int id() const { return id_; }
  bool wants_power() const { return wants_power_; }

  /// Checkpoint support: the budget slice, filter, windows, last reading,
  /// stance and whether the first reading has come. The id, limits and
  /// config are construction parameters.
  void save(ByteWriter& out) const;
  void load(ByteReader& in);

 private:
  int id_;
  Watts budget_;
  Watts min_cap_;
  Watts tdp_;
  P2pConfig config_;
  Kalman1D filter_;
  RollingWindow history_;
  RollingWindow durations_;
  Watts last_power_ = 0.0;
  bool wants_power_ = false;
  bool first_observation_ = true;
};

}  // namespace dps
