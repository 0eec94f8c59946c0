#pragma once

#include <cstdint>
#include <vector>

#include "p2p/agent.hpp"
#include "util/rng.hpp"

namespace dps {

/// How agents find trading partners each round.
enum class ExchangeTopology {
  /// Agent i trades with agent (i + stride) mod n; the stride advances
  /// every round so budget diffuses around the ring.
  kRing,
  /// A fresh random perfect matching every round.
  kRandomPairs,
};

/// The decentralized budget market: each round, agents are matched
/// pairwise and, within each pair, budget flows from the donor to the
/// requester, bounded by min(offer, request). The cluster-wide sum of the
/// agents' budget slices is conserved *exactly* — no watt is ever created
/// or destroyed — which is the decentralized analogue of the central
/// manager's budget invariant.
class ExchangeNetwork {
 public:
  ExchangeNetwork(std::vector<PowerAgent>* agents, ExchangeTopology topology,
                  std::uint64_t seed = 1);

  /// Runs one round of pairwise exchanges. Returns the total watts moved.
  Watts run_round();

  /// Sum of all agents' budget slices (must stay constant forever).
  Watts total_budget() const;

  /// Checkpoint support: the matching RNG and the ring stride.
  void save(ByteWriter& out) const;
  void load(ByteReader& in);

 private:
  /// Performs the bounded transfer within one pair (either direction).
  Watts trade(PowerAgent& a, PowerAgent& b);

  std::vector<PowerAgent>* agents_;
  ExchangeTopology topology_;
  Rng rng_;
  int ring_stride_ = 1;
};

}  // namespace dps
