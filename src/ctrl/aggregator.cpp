#include "ctrl/aggregator.hpp"

#include <limits>
#include <numeric>
#include <stdexcept>

#include "util/bytes.hpp"

namespace dps {
namespace {

constexpr std::uint8_t kAggrMagic[8] = {'D', 'P', 'S', 'A', 'G', 'G', 'R',
                                        '\0'};
constexpr std::uint32_t kAggrFormatVersion = 1;

}  // namespace

std::vector<std::uint8_t> encode_aggregator_checkpoint(
    const AggregatorCheckpoint& ckpt) {
  ByteWriter out;
  out.i64(ckpt.parent_unit);
  out.blob(encode_checkpoint(ckpt.inner));
  return out.take();
}

AggregatorCheckpoint decode_aggregator_checkpoint(
    std::span<const std::uint8_t> payload) {
  ByteReader in(payload);
  AggregatorCheckpoint ckpt;
  const std::int64_t parent_unit = in.i64();
  if (parent_unit < -1 || parent_unit > std::numeric_limits<int>::max()) {
    throw std::runtime_error("aggregator checkpoint has parent slot " +
                             std::to_string(parent_unit));
  }
  ckpt.parent_unit = static_cast<int>(parent_unit);
  ckpt.inner = decode_checkpoint(in.blob());
  if (!in.exhausted()) {
    throw std::runtime_error("aggregator checkpoint has trailing bytes");
  }
  return ckpt;
}

void write_aggregator_checkpoint_file(const std::string& path,
                                      const AggregatorCheckpoint& ckpt) {
  write_framed_file(path, kAggrMagic, kAggrFormatVersion,
                    encode_aggregator_checkpoint(ckpt));
}

AggregatorCheckpoint read_aggregator_checkpoint_file(const std::string& path) {
  return decode_aggregator_checkpoint(
      read_framed_file(path, kAggrMagic, kAggrFormatVersion));
}

AggregatorNode::AggregatorNode(PowerManager& manager,
                               const ManagerContext& ctx,
                               const CtrlConfig& ctrl, const NetConfig& net,
                               std::uint16_t listen_port, bool bind_any)
    : manager_(manager),
      ctx_(ctx),
      ctrl_(ctrl),
      net_(net),
      server_(listen_port, ctx.num_units, bind_any, net) {
  check_section(ctrl_section(), ctrl_);
}

void AggregatorNode::set_obs(const obs::ObsSink& sink) {
  obs_ = sink;
  server_.set_obs(sink);
  if (!has_parent()) return;
  obs_reports_ = sink.counter("ctrl_shard_reports_total",
                              "Shard aggregates reported to the parent");
  obs_budget_changes_ = sink.counter(
      "ctrl_shard_budget_changes_total",
      "Shard budget reassignments received from the parent");
  obs_uplink_losses_ = sink.counter("ctrl_uplink_losses_total",
                                    "Times the parent connection was lost");
  obs_uplink_reconnects_ = sink.counter(
      "ctrl_uplink_reconnects_total",
      "Successful uplink reconnections (old parent slot reclaimed)");
  if (uplink_) uplink_->set_obs(sink);
}

void AggregatorNode::accept_children(const std::atomic<bool>* stop) {
  server_.accept_all(stop);
}

std::unique_ptr<NodeClient> AggregatorNode::make_uplink(int unit_hint) {
  // The uplink carries per-unit means: aggregate / child count upward, and
  // the received per-unit budget scaled back by the child count — keeping
  // any shard size within the codec's 6553.5 W deciwatt range.
  NetConfig uplink_net = net_;
  // The shard rides out uplink outages at its last budget; never let the
  // generic client failsafe rewrite the local manager's budget.
  uplink_net.failsafe_cap_w = 0.0;
  auto client = std::make_unique<NodeClient>(
      [this]() -> Watts { return last_aggregate_ / ctx_.num_units; },
      [this](Watts per_unit_budget) { apply_parent_budget(per_unit_budget); },
      uplink_net,
      static_cast<std::uint64_t>(server_.port()) * 2654435761ULL + 1,
      unit_hint);
  if (obs_) client->set_obs(obs_);
  return client;
}

void AggregatorNode::connect_parent() {
  if (!has_parent()) return;
  auto client = make_uplink(parent_unit_ >= 0 ? parent_unit_
                                              : ctrl_.parent_unit);
  client->connect(static_cast<std::uint16_t>(ctrl_.parent_port),
                  ctrl_.parent_host);
  parent_unit_ = client->unit_id();
  uplink_ = std::move(client);
}

void AggregatorNode::apply_parent_budget(Watts per_unit_budget) {
  const Watts budget = per_unit_budget * ctx_.num_units;
  if (budget == ctx_.total_budget) return;
  obs_.event(obs::EventKind::kShardBudget, parent_unit_, budget,
             ctx_.total_budget);
  if (obs_budget_changes_ != nullptr) obs_budget_changes_->add();
  ctx_.total_budget = budget;
  if (session_live_) manager_.update_budget(budget);
}

void AggregatorNode::begin() {
  server_.begin_session(manager_, ctx_);
  session_live_ = true;
}

std::uint64_t AggregatorNode::restore() {
  AggregatorCheckpoint ckpt;
  if (has_parent()) {
    ckpt = read_aggregator_checkpoint_file(net_.checkpoint_path);
  } else {
    ckpt.inner = read_checkpoint_file(net_.checkpoint_path);
  }
  const ControlCheckpoint& inner = ckpt.inner;
  if (inner.ctx.num_units != ctx_.num_units) {
    throw std::runtime_error(
        "checkpoint unit count mismatch: snapshot has " +
        std::to_string(inner.ctx.num_units) + ", configured " +
        std::to_string(ctx_.num_units));
  }
  restore_manager(manager_, inner);
  // The snapshot's context carries the live budget (for an aggregator, the
  // one the parent last assigned): resume under it, not the boot value.
  ctx_ = inner.ctx;
  server_.resume_session(manager_, ctx_, inner.round, inner.caps,
                         inner.previous_caps);
  parent_unit_ = ckpt.parent_unit;
  session_live_ = true;
  obs_.event(obs::EventKind::kCheckpointRestore, -1,
             static_cast<double>(inner.round));
  return inner.round;
}

bool AggregatorNode::run_round() {
  if (!session_live_) {
    throw std::logic_error("AggregatorNode::run_round before begin/restore");
  }
  decide_ns_ += server_.run_round(manager_);
  const auto& power = server_.last_power();
  last_aggregate_ = std::accumulate(power.begin(), power.end(), 0.0);
  const bool keep_going = !has_parent() || exchange_with_parent();
  if (!net_.checkpoint_path.empty() &&
      server_.rounds() % net_.checkpoint_interval_rounds == 0) {
    write_checkpoint();
  }
  return keep_going;
}

bool AggregatorNode::exchange_with_parent() {
  if (uplink_ == nullptr) {
    // Uplink lost in an earlier round: one quick attempt per round, so the
    // children's cadence never stalls behind a long backoff.
    try {
      auto client = make_uplink(parent_unit_);
      client->connect(static_cast<std::uint16_t>(ctrl_.parent_port),
                      ctrl_.parent_host);
      parent_unit_ = client->unit_id();
      uplink_ = std::move(client);
      if (obs_uplink_reconnects_ != nullptr) obs_uplink_reconnects_->add();
    } catch (const std::runtime_error&) {
      return true;  // stay parked at the last assigned budget
    }
  }

  obs_.event(obs::EventKind::kShardReport, parent_unit_, last_aggregate_,
             static_cast<double>(ctx_.num_units));
  if (obs_reports_ != nullptr) obs_reports_->add();
  switch (uplink_->run_round_ex()) {
    case NodeClient::RoundOutcome::kContinue:
      return true;
    case NodeClient::RoundOutcome::kShutdown:
      return false;
    case NodeClient::RoundOutcome::kLost:
      if (obs_uplink_losses_ != nullptr) obs_uplink_losses_->add();
      uplink_.reset();  // keep parent_unit_: the slot we will reclaim
      return true;
  }
  return true;
}

void AggregatorNode::write_checkpoint() {
  ControlCheckpoint ckpt =
      make_checkpoint(manager_, ctx_, server_.rounds(), server_.last_caps(),
                      server_.previous_caps());
  const std::size_t state_bytes = ckpt.manager_state.size();
  if (has_parent()) {
    write_aggregator_checkpoint_file(net_.checkpoint_path,
                                     {parent_unit_, std::move(ckpt)});
  } else {
    write_checkpoint_file(net_.checkpoint_path, ckpt);
  }
  obs_.event(obs::EventKind::kCheckpointWrite, -1,
             static_cast<double>(server_.rounds()),
             static_cast<double>(state_bytes));
}

}  // namespace dps
