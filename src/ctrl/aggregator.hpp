#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "ctrl/ctrl_config.hpp"
#include "managers/manager.hpp"
#include "net/client.hpp"
#include "net/net_config.hpp"
#include "net/server.hpp"
#include "obs/sink.hpp"

namespace dps {

/// Snapshot of an aggregator under a parent: the shard-local control
/// session (the ControlCheckpoint a root writes; its ctx.total_budget is
/// the *live* shard budget, i.e. the parent's latest assignment) plus the
/// slot this aggregator held at its parent, so a restarted process
/// reclaims the same virtual unit instead of joining the tree as a
/// stranger.
struct AggregatorCheckpoint {
  /// Unit id held at the parent when the snapshot was taken (-1: uplink
  /// never acknowledged).
  int parent_unit = -1;
  ControlCheckpoint inner;
};

/// The "DPSAGGR" payload: the parent slot, then the inner
/// ControlCheckpoint's payload. decode throws std::runtime_error on a
/// truncated, malformed or overlong payload.
std::vector<std::uint8_t> encode_aggregator_checkpoint(
    const AggregatorCheckpoint& ckpt);
AggregatorCheckpoint decode_aggregator_checkpoint(
    std::span<const std::uint8_t> payload);

/// Atomic write / validated read of that payload with the shared
/// framed-file format (magic "DPSAGGR", CRC-32, tmp+rename) — see
/// core/checkpoint.hpp.
void write_aggregator_checkpoint_file(const std::string& path,
                                      const AggregatorCheckpoint& ckpt);
AggregatorCheckpoint read_aggregator_checkpoint_file(const std::string& path);

/// The controller process: one tier of the control tree, the root or an
/// aggregator under a parent dpsd, as [ctrl] says. Downward it is a
/// ControlServer: its children (node clients, or further aggregators)
/// connect over TCP and run the ordinary 3-byte report/cap rounds against
/// the local manager, with round deadlines and readmission. A node whose
/// [ctrl] names a parent_host is an aggregator and is, upward, a
/// NodeClient: after each child round it reports the shard's aggregate
/// power to its parent and receives the shard's budget, which becomes the
/// local manager's total via update_budget. A node without a parent is the
/// root, the flat controller of the paper's deployment.
///
/// Checkpoints: with net.checkpoint_path set, the node writes its snapshot
/// every net.checkpoint_interval_rounds rounds and restore() reads it back,
/// each with a checkpoint_write / checkpoint_restore event. The root writes
/// a ControlCheckpoint ("DPSCKPT", core/checkpoint.hpp), an aggregator an
/// AggregatorCheckpoint ("DPSAGGR") that also records its parent slot.
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
  /// the parent's first assignment or a restore). `ctrl` supplies the
  /// parent endpoint; `net` the round deadline, the uplink's reconnect
  /// knobs and the checkpoint file.
  AggregatorNode(PowerManager& manager, const ManagerContext& ctx,
                 const CtrlConfig& ctrl, const NetConfig& net = {},
                 std::uint16_t listen_port = 0, bool bind_any = false);

  /// Call before accept_children so connect events are captured.
  void set_obs(const obs::ObsSink& sink);

  /// Port the children connect to (useful with listen_port 0).
  std::uint16_t port() const { return server_.port(); }

  /// Whether [ctrl] names a parent: false for the root.
  bool has_parent() const { return !ctrl_.parent_host.empty(); }

  /// Blocks until all ctx.num_units children completed their hello, or
  /// until `*stop` is set (see ControlServer::accept_all).
  void accept_children(const std::atomic<bool>* stop = nullptr);

  /// Connects the uplink and performs the hello handshake, reclaiming the
  /// configured (or checkpoint-restored) parent slot. No-op at the root.
  /// Throws when every attempt fails.
  void connect_parent();

  /// Fresh session: resets the manager with the shard context.
  void begin();
  /// Restored session from net.checkpoint_path, in this node's format: the
  /// manager resumes from the snapshot's state, its context (and so its
  /// budget) becomes the snapshot's, the cap vectors pick up where the
  /// snapshot left off, and connect_parent will reclaim the snapshot's
  /// parent slot. Returns the snapshot's round. Throws std::runtime_error
  /// on a bad file or a unit count other than ctx.num_units.
  std::uint64_t restore();

  /// One tree round: child collect/decide/answer under the current shard
  /// budget, then (with a parent) the uplink exchange — report the
  /// aggregate, apply the budget the parent answers with to the *next*
  /// round — then the periodic checkpoint. Returns false when the parent
  /// orderly shut the tree down.
  bool run_round();

  /// Sends every child a shutdown and closes the connections.
  void shutdown_children() { server_.shutdown(); }

  /// Live budget: the parent's latest assignment, or the root's own.
  Watts shard_budget() const { return ctx_.total_budget; }
  /// Slot held at the parent (-1 until the uplink hello was acked).
  int parent_unit() const { return parent_unit_; }
  /// Aggregate power of the last child round (what the uplink reports,
  /// before per-unit normalization).
  Watts last_aggregate_power() const { return last_aggregate_; }
  /// Nanoseconds spent inside the local manager's decide() so far.
  std::uint64_t decide_ns() const { return decide_ns_; }
  std::uint64_t rounds() const { return server_.rounds(); }

  /// The downward server: last caps and message counters.
  const ControlServer& server() const { return server_; }

 private:
  std::unique_ptr<NodeClient> make_uplink(int unit_hint);
  void apply_parent_budget(Watts per_unit_budget);
  /// The uplink half of run_round; false on the parent's shutdown.
  bool exchange_with_parent();
  void write_checkpoint();

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
