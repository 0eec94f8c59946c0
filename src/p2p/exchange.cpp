#include "p2p/exchange.hpp"

#include <algorithm>
#include <stdexcept>

namespace dps {

ExchangeNetwork::ExchangeNetwork(std::vector<PowerAgent>* agents,
                                 ExchangeTopology topology,
                                 std::uint64_t seed)
    : agents_(agents), topology_(topology), rng_(seed) {
  if (agents_ == nullptr || agents_->size() < 2) {
    throw std::invalid_argument("ExchangeNetwork: need >= 2 agents");
  }
}

Watts ExchangeNetwork::trade(PowerAgent& a, PowerAgent& b) {
  // Budget flows toward whichever side requests; if both request or both
  // donate, nothing moves in this pair this round.
  const Watts a_to_b = std::min(a.offer(), b.request());
  const Watts b_to_a = std::min(b.offer(), a.request());
  if (a_to_b > 0.0) {
    a.settle(-a_to_b);
    b.settle(a_to_b);
    return a_to_b;
  }
  if (b_to_a > 0.0) {
    b.settle(-b_to_a);
    a.settle(b_to_a);
    return b_to_a;
  }
  return 0.0;
}

Watts ExchangeNetwork::run_round() {
  auto& agents = *agents_;
  const std::size_t n = agents.size();
  Watts moved = 0.0;

  if (topology_ == ExchangeTopology::kRing) {
    // Pair i with i+stride; advancing the stride lets budget reach any
    // agent in O(n / distinct strides) rounds without global knowledge.
    const int stride = ring_stride_;
    ring_stride_ = ring_stride_ % static_cast<int>(n - 1) + 1;
    std::vector<bool> used(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = (i + static_cast<std::size_t>(stride)) % n;
      if (used[i] || used[j] || i == j) continue;
      used[i] = true;
      used[j] = true;
      moved += trade(agents[i], agents[j]);
    }
  } else {
    std::vector<std::uint32_t> order(n);
    shuffle_indices(rng_, order.data(), static_cast<std::uint32_t>(n));
    for (std::size_t i = 0; i + 1 < n; i += 2) {
      moved += trade(agents[order[i]], agents[order[i + 1]]);
    }
  }
  return moved;
}

Watts ExchangeNetwork::total_budget() const {
  Watts total = 0.0;
  for (const auto& agent : *agents_) total += agent.budget();
  return total;
}

void ExchangeNetwork::save(ByteWriter& out) const {
  rng_.save(out);
  out.i64(ring_stride_);
}

void ExchangeNetwork::load(ByteReader& in) {
  rng_.load(in);
  ring_stride_ = static_cast<int>(in.i64());
}

}  // namespace dps
