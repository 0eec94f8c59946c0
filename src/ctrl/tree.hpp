#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ctrl/ctrl_config.hpp"
#include "managers/manager.hpp"
#include "obs/sink.hpp"
#include "util/thread_pool.hpp"

namespace dps {

/// Creates one manager instance for a tier of the tree. Called once per
/// leaf shard (and once for the root) at reset time, so every shard owns
/// private state and the tree can be driven from multiple threads.
using ManagerFactory = std::function<std::unique_ptr<PowerManager>()>;

/// Hierarchical control plane, in-process form: the cluster's units are
/// partitioned into shards of `CtrlConfig::shard_size`; each shard is
/// managed by a private *leaf* manager running the full DPS machinery, and
/// a *root* manager redistributes the shard-level budgets by treating every
/// shard as one bigger virtual unit (aggregate measured power in, shard
/// budget out — the same decide() contract, one level up). When the shard
/// count itself exceeds `shard_size`, intermediate tiers are inserted
/// recursively (the root manager of this TreeController is another
/// TreeController) up to `max_levels`.
///
/// This is the Tegra-sysedp budget-flow pattern (SNIPPETS.md §1): a
/// top-level budget fans out through per-domain cap tables, each tier
/// re-running the same allocation logic over a bounded fan-out. Not to be
/// confused with managers/hierarchical.hpp — that is a *manager policy*
/// (the Argo-style two-level enclave heuristic evaluated as a baseline);
/// this is a *control-plane topology* that composes any PowerManager,
/// including DPS itself, and exists to bound per-controller fan-out. See
/// docs/architecture.md ("Hierarchical control plane").
///
/// TreeController is itself a PowerManager, so it drops unchanged into
/// SimulationEngine, ControlServer, checkpoints (save_state serializes the
/// whole tree), and every bench that takes a manager.
///
/// Invariants, per decide():
///  * sum of shard budgets <= total budget (root decisions are clamped to
///    each shard's [size*min_cap, sum-of-member-TDPs] box and any excess
///    is shed proportionally);
///  * each leaf keeps its shard's cap sum within the shard budget (its own
///    PowerManager contract), hence the cluster cap sum never exceeds the
///    cluster budget.
class TreeController final : public PowerManager {
 public:
  /// `leaf_factory` builds the per-shard managers, `root_factory` the
  /// budget-redistribution tiers. Defaults: DpsManager for both.
  TreeController(const CtrlConfig& config, ManagerFactory leaf_factory,
                 ManagerFactory root_factory);
  explicit TreeController(const CtrlConfig& config = {});
  ~TreeController() override;

  std::string_view name() const override { return "ctrl_tree"; }
  void reset(const ManagerContext& ctx) override;
  void decide(std::span<const Watts> power, std::span<Watts> caps) override;
  void update_budget(Watts new_total_budget) override;
  void set_obs(const obs::ObsSink& sink) override;

  /// Serializes the whole tree: the shard layout, the live shard budgets,
  /// the root manager's opaque state and one CRC-guarded blob per leaf.
  /// load_state rejects a snapshot whose layout disagrees with the current
  /// reset() (shard count/sizes) and a blob whose CRC does not match —
  /// naming the offending shard — instead of feeding a tier foreign bytes.
  void save_state(ByteWriter& out) const override;
  void load_state(ByteReader& in) override;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// Budget currently assigned to each shard (watts).
  const std::vector<Watts>& shard_budgets() const { return budgets_; }
  /// Units in shard `s`.
  int shard_size(int s) const { return shards_[static_cast<std::size_t>(s)].size; }
  /// The leaf manager of shard `s` (for tests).
  const PowerManager& leaf(int s) const {
    return *shards_[static_cast<std::size_t>(s)].manager;
  }
  const PowerManager& root() const { return *root_; }
  /// Tiers in this tree, including the leaf tier (2 = one root level).
  int levels() const;

  /// Distributed-latency model of the last decide(): the wall time of the
  /// round's critical path if every tier ran on its own controller node —
  /// root decide (recursively its own critical path) plus the slowest leaf
  /// decide. This is the quantity bench/ext_scale.cpp plots against the
  /// flat controller's whole-cluster decide.
  std::uint64_t last_critical_path_ns() const { return last_critical_ns_; }
  /// Total CPU nanoseconds of the last decide() across all tiers.
  std::uint64_t last_total_ns() const { return last_total_ns_; }

 private:
  struct Shard {
    int first = 0;
    int size = 0;
    std::unique_ptr<PowerManager> manager;
    std::uint64_t last_decide_ns = 0;
  };

  void apply_shard_budget(std::size_t s, Watts budget);
  void run_leaf(std::size_t s, std::span<const Watts> power,
                std::span<Watts> caps);
  void run_leaves_on_pool(std::span<const Watts> power, std::span<Watts> caps);

  CtrlConfig config_;
  ManagerFactory leaf_factory_;
  ManagerFactory root_factory_;
  ManagerContext ctx_;
  std::vector<Shard> shards_;
  std::unique_ptr<PowerManager> root_;
  // The nested view of root_ when intermediate tiers were inserted.
  TreeController* root_tree_ = nullptr;
  std::vector<Watts> budgets_;       // live shard budgets
  std::vector<Watts> floors_;        // per shard: size * min_cap
  std::vector<Watts> ceilings_;      // per shard: sum of member TDPs
  std::vector<Watts> shard_power_;   // scratch: aggregated reports
  std::vector<Watts> proposed_;      // scratch: the root tier's budgets
  std::unique_ptr<ThreadPool> pool_; // leaf_jobs > 1 only
  std::uint64_t last_critical_ns_ = 0;
  std::uint64_t last_total_ns_ = 0;

  obs::ObsSink obs_;
  obs::Counter* obs_rounds_ = nullptr;
  obs::Counter* obs_budget_moves_ = nullptr;
  obs::Histogram* obs_root_seconds_ = nullptr;
  obs::Histogram* obs_leaf_seconds_ = nullptr;
};

}  // namespace dps
