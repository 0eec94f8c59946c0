#include "p2p/p2p_manager.hpp"

#include <algorithm>
#include <stdexcept>

namespace dps {

P2pManager::P2pManager(ExchangeTopology topology, int exchange_rounds,
                       const P2pConfig& config)
    : topology_(topology),
      exchange_rounds_(exchange_rounds),
      config_(config) {
  if (exchange_rounds < 1) {
    throw std::invalid_argument("P2pManager: exchange_rounds must be >= 1");
  }
}

void P2pManager::reset(const ManagerContext& ctx) {
  ctx_ = ctx;
  agents_.clear();
  agents_.reserve(static_cast<std::size_t>(ctx.num_units));
  for (int u = 0; u < ctx.num_units; ++u) {
    agents_.emplace_back(u, std::min(ctx.constant_cap(), ctx.tdp_of(u)),
                         ctx.min_cap, ctx.tdp_of(u), config_);
  }
  network_ = std::make_unique<ExchangeNetwork>(
      &agents_, topology_, 0xbeefULL + static_cast<std::uint64_t>(ctx.num_units));
}

void P2pManager::decide(std::span<const Watts> power,
                        std::span<Watts> caps) {
  if (power.size() != agents_.size() || caps.size() != agents_.size()) {
    throw std::invalid_argument("P2pManager::decide: size mismatch");
  }
  // Each agent's local observation happens independently (on a real
  // deployment, on its own node).
  for (std::size_t u = 0; u < agents_.size(); ++u) {
    agents_[u].observe(power[u]);
  }
  for (int round = 0; round < exchange_rounds_; ++round) {
    network_->run_round();
  }
  for (std::size_t u = 0; u < agents_.size(); ++u) {
    caps[u] = agents_[u].budget();
  }
}

void P2pManager::update_budget(Watts new_total_budget) {
  // A budget change is a global event even in a decentralized system (the
  // facility announces it). Scale every agent's slice proportionally.
  const Watts current = network_ ? network_->total_budget() : 0.0;
  ctx_.total_budget = new_total_budget;
  if (current <= 0.0) return;
  const double scale = new_total_budget / current;
  for (auto& agent : agents_) {
    // Scale but never below the hardware minimum (a budget below
    // n * min_cap is physically unenforceable, as with enforce_budget).
    const Watts target = std::max(ctx_.min_cap, agent.budget() * scale);
    agent.settle(target - agent.budget());
  }
}

void P2pManager::save_state(ByteWriter& out) const {
  out.u64(agents_.size());
  for (const auto& agent : agents_) agent.save(out);
  network_->save(out);
}

void P2pManager::load_state(ByteReader& in) {
  if (in.u64() != agents_.size()) {
    throw std::runtime_error("P2pManager: snapshot unit count mismatch");
  }
  for (auto& agent : agents_) agent.load(in);
  network_->load(in);
}

}  // namespace dps
