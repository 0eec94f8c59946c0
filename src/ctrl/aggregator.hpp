#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/checkpoint.hpp"
#include "ctrl/ctrl_config.hpp"
#include "managers/manager.hpp"
#include "net/client.hpp"
#include "net/net_config.hpp"
#include "net/server.hpp"
#include "obs/sink.hpp"

namespace dps {

/// Snapshot of a running aggregator: the shard-local control session (the
/// same ControlCheckpoint a flat dpsd writes — its ctx.total_budget is the
/// *live* shard budget, i.e. the parent's latest assignment) plus the slot
/// this aggregator held at its parent, so a restarted process reclaims the
/// same virtual unit instead of joining the tree as a stranger.
struct AggregatorCheckpoint {
  /// Unit id held at the parent when the snapshot was taken (-1: root
  /// aggregator, or uplink never acknowledged).
  int parent_unit = -1;
  ControlCheckpoint inner;
};

std::vector<std::uint8_t> encode_aggregator_checkpoint(
    const AggregatorCheckpoint& ckpt);
AggregatorCheckpoint decode_aggregator_checkpoint(
    std::span<const std::uint8_t> payload);

/// Atomic write / validated read with the shared framed-file format
/// (magic "DPSAGGR", CRC-32, tmp+rename) — see core/checkpoint.hpp.
void write_aggregator_checkpoint_file(const std::string& path,
                                      const AggregatorCheckpoint& ckpt);
AggregatorCheckpoint read_aggregator_checkpoint_file(const std::string& path);

/// Hierarchical control plane, wire form: one tier of the tree as a real
/// process. Downward it is a ControlServer — its children (leaf node
/// clients, or further aggregators) connect over TCP and run the ordinary
/// 3-byte report/cap rounds against the local manager, with the round
/// deadline, readmission and checkpointing semantics of PR 4 unchanged.
/// Upward it is a NodeClient: after each child round it reports the
/// shard's aggregate power to its parent and receives the shard's budget,
/// which becomes the local manager's total via update_budget.
///
/// Wire normalization: a shard's aggregate can exceed the 3-byte codec's
/// 6553.5 W ceiling long before the tree is interesting, so parent links
/// carry *per-unit means* — the aggregator reports aggregate/child_units
/// and multiplies the received budget back by child_units. The parent tier
/// therefore runs with per-unit-scale context (total_budget =
/// cluster_budget / child_units); docs/deployment.md walks through the
/// arithmetic. This requires every child of one parent to span the same
/// number of units (enforced by the deployment, not the code).
///
/// Failure semantics: losing the uplink does NOT disturb the children —
/// the shard keeps running rounds under its last assigned budget (a budget
/// the parent already accounted for, so the cluster stays within its
/// global cap) while each subsequent round makes one quick reconnect
/// attempt, reclaiming the old parent slot. An orderly parent shutdown is
/// propagated to the children. Meanwhile the parent's round deadline
/// scores the missing shard 0 W, exactly like any dark unit.
class AggregatorNode {
 public:
  /// `manager` runs the shard (typically DpsManager); `ctx` describes the
  /// shard (num_units children, total_budget = initial shard budget until
  /// the parent's first assignment). `ctrl` supplies the parent endpoint;
  /// `net` the shared hardening knobs (deadline, backoff, checkpointing).
  AggregatorNode(PowerManager& manager, const ManagerContext& ctx,
                 const CtrlConfig& ctrl, const NetConfig& net = {},
                 std::uint16_t listen_port = 0, bool bind_any = false);

  /// Call before accept_children so connect events are captured.
  void set_obs(const obs::ObsSink& sink);

  /// Port the children connect to (useful with listen_port 0).
  std::uint16_t port() const { return server_.port(); }

  /// Blocks until all ctx.num_units children completed their hello, or
  /// until `*stop` is set (see ControlServer::accept_all).
  void accept_children(const std::atomic<bool>* stop = nullptr);

  /// Connects the uplink and performs the hello handshake, reclaiming the
  /// configured (or checkpoint-restored) parent slot. No-op for a root
  /// aggregator (empty parent_host). Throws when every attempt fails.
  void connect_parent();

  /// Fresh session: resets the manager with the shard context.
  void begin();
  /// Restored session: the manager resumes from the snapshot's state and
  /// budget, the cap vectors pick up where the snapshot left off, and
  /// connect_parent will reclaim the snapshot's parent slot.
  void resume(const AggregatorCheckpoint& ckpt);

  /// One tree round: child collect/decide/answer under the current shard
  /// budget, then (non-root) the uplink exchange — report the aggregate,
  /// apply the budget the parent answers with to the *next* round. Returns
  /// false when the parent orderly shut the tree down.
  bool run_round();

  /// Round loop with periodic checkpoints (net.checkpoint_path /
  /// checkpoint_interval_rounds). Runs until the parent shuts the tree
  /// down or `max_rounds` complete (max_rounds < 0: until shutdown), then
  /// propagates shutdown to the children. Returns rounds completed.
  int run(int max_rounds = -1);

  /// Sends every child a shutdown and closes the connections.
  void shutdown_children() { server_.shutdown(); }

  AggregatorCheckpoint make_checkpoint() const;

  /// Live shard budget (the parent's latest assignment).
  Watts shard_budget() const { return ctx_.total_budget; }
  /// Slot held at the parent (-1 until the uplink hello was acked).
  int parent_unit() const { return parent_unit_; }
  bool uplink_connected() const { return uplink_ != nullptr; }
  /// Aggregate power of the last child round (what the uplink reports,
  /// before per-unit normalization).
  Watts last_aggregate_power() const { return last_aggregate_; }
  /// Nanoseconds spent inside the local manager's decide() so far.
  std::uint64_t decide_ns() const { return decide_ns_; }
  std::uint64_t rounds() const { return server_.rounds(); }

  /// The downward server, for tests.
  ControlServer& server() { return server_; }

 private:
  std::unique_ptr<NodeClient> make_uplink(int unit_hint);
  void apply_parent_budget(Watts per_unit_budget);

  PowerManager& manager_;
  ManagerContext ctx_;
  CtrlConfig ctrl_;
  NetConfig net_;
  ControlServer server_;
  std::unique_ptr<NodeClient> uplink_;
  int parent_unit_ = -1;
  Watts last_aggregate_ = 0.0;
  std::uint64_t decide_ns_ = 0;
  bool session_live_ = false;
  obs::ObsSink obs_;
  obs::Counter* obs_reports_ = nullptr;
  obs::Counter* obs_budget_changes_ = nullptr;
  obs::Counter* obs_uplink_losses_ = nullptr;
  obs::Counter* obs_uplink_reconnects_ = nullptr;
};

}  // namespace dps
