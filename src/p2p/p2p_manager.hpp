#pragma once

#include <memory>
#include <vector>

#include "managers/manager.hpp"
#include "p2p/agent.hpp"
#include "p2p/exchange.hpp"

namespace dps {

/// Adapter that runs the decentralized agent swarm behind the central
/// PowerManager interface so it drops into the same engine and benches as
/// every other manager. Each decide() performs what, on a real deployment,
/// would happen independently on every node within one decision period:
/// every agent observes its own unit's power, then `exchange_rounds`
/// rounds of pairwise trading run. The caps written back are exactly the
/// agents' budget slices, so the budget invariant is the conservation
/// property of the exchange.
class P2pManager final : public PowerManager {
 public:
  explicit P2pManager(ExchangeTopology topology = ExchangeTopology::kRing,
                      int exchange_rounds = 2, const P2pConfig& config = {});

  std::string_view name() const override { return "p2p"; }
  void reset(const ManagerContext& ctx) override;
  void decide(std::span<const Watts> power, std::span<Watts> caps) override;
  void update_budget(Watts new_total_budget) override;
  void save_state(ByteWriter& out) const override;
  void load_state(ByteReader& in) override;

  const std::vector<PowerAgent>& agents() const { return agents_; }

 private:
  ExchangeTopology topology_;
  int exchange_rounds_;
  P2pConfig config_;
  ManagerContext ctx_;
  std::vector<PowerAgent> agents_;
  std::unique_ptr<ExchangeNetwork> network_;
};

}  // namespace dps
