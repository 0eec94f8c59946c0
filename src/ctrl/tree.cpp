#include "ctrl/tree.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <future>
#include <limits>
#include <stdexcept>

#include "core/dps_manager.hpp"
#include "util/bytes.hpp"

namespace dps {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// Leading magic of a serialized tree snapshot ("CTRL").
constexpr std::uint32_t kTreeStateMagic = 0x4354524Cu;

/// Shards a pooled leaf task claims per visit to the shared counter: the
/// counter is touched once per several leaf decisions, while the blocks
/// stay small enough that the workers finish the round close together.
constexpr std::size_t kLeafClaimBlock = 8;

/// Budget fix-up after the root tier's decision: clamp every shard budget
/// into its feasible box and, if the (possibly misbehaving) root manager
/// overcommitted, shed the excess proportionally from the budgets still
/// above their floor — the per-shard analogue of enforce_budget.
void clamp_shard_budgets(std::span<Watts> budgets,
                         std::span<const Watts> floors,
                         std::span<const Watts> ceilings, Watts total) {
  Watts sum = 0.0;
  for (std::size_t s = 0; s < budgets.size(); ++s) {
    budgets[s] = std::clamp(budgets[s], floors[s], ceilings[s]);
    sum += budgets[s];
  }
  if (sum <= total + 1e-9) return;
  // Shed the overshoot from the headroom above the floors. If the budget
  // sits below the sum of floors nothing can give (the same physical
  // impossibility enforce_budget accepts at min_cap).
  Watts headroom = 0.0;
  for (std::size_t s = 0; s < budgets.size(); ++s) {
    headroom += budgets[s] - floors[s];
  }
  if (headroom <= 0.0) return;
  const double keep = std::max(0.0, (total - (sum - headroom)) / headroom);
  for (std::size_t s = 0; s < budgets.size(); ++s) {
    budgets[s] = floors[s] + (budgets[s] - floors[s]) * keep;
  }
}

}  // namespace

TreeController::TreeController(const CtrlConfig& config,
                               ManagerFactory leaf_factory,
                               ManagerFactory root_factory)
    : config_(config),
      leaf_factory_(std::move(leaf_factory)),
      root_factory_(std::move(root_factory)) {
  validate_ctrl_config(config_);
}

TreeController::TreeController(const CtrlConfig& config)
    : TreeController(
          config, [] { return std::make_unique<DpsManager>(); },
          [] { return std::make_unique<DpsManager>(); }) {}

TreeController::~TreeController() = default;

int TreeController::levels() const {
  if (root_ == nullptr) return 1;
  return 1 + (root_tree_ != nullptr ? root_tree_->levels() : 1);
}

void TreeController::reset(const ManagerContext& ctx) {
  if (ctx.num_units <= 0) {
    throw std::invalid_argument("TreeController: num_units must be > 0");
  }
  ctx_ = ctx;
  shards_.clear();
  root_.reset();
  root_tree_ = nullptr;
  pool_.reset();

  const int n = ctx.num_units;
  const int shard_size =
      config_.max_levels <= 1 ? n : std::min(config_.shard_size, n);
  const int num_shards = (n + shard_size - 1) / shard_size;

  const auto shard_count = static_cast<std::size_t>(num_shards);
  shards_.resize(shard_count);
  budgets_.assign(shard_count, 0.0);
  floors_.assign(shard_count, 0.0);
  ceilings_.assign(shard_count, 0.0);
  shard_power_.assign(shard_count, 0.0);
  proposed_.assign(shard_count, 0.0);
  for (std::size_t s = 0; s < shard_count; ++s) {
    Shard& shard = shards_[s];
    shard.first = static_cast<int>(s) * shard_size;
    shard.size = std::min(shard_size, n - shard.first);
    floors_[s] = shard.size * ctx.min_cap;
    for (int u = shard.first; u < shard.first + shard.size; ++u) {
      ceilings_[s] += ctx.tdp_of(u);
    }
  }
  // Initial shard budgets: the constant allocation one level up — every
  // unit's fair share, summed per shard (matches what a flat manager's
  // restore target gives the same units).
  for (int s = 0; s < num_shards; ++s) {
    budgets_[static_cast<std::size_t>(s)] =
        ctx.constant_cap() * shards_[static_cast<std::size_t>(s)].size;
  }

  for (int s = 0; s < num_shards; ++s) {
    Shard& shard = shards_[static_cast<std::size_t>(s)];
    shard.manager = leaf_factory_();
    ManagerContext leaf_ctx;
    leaf_ctx.num_units = shard.size;
    leaf_ctx.total_budget = budgets_[static_cast<std::size_t>(s)];
    leaf_ctx.tdp = ctx.tdp;
    leaf_ctx.min_cap = ctx.min_cap;
    leaf_ctx.dt = ctx.dt;
    if (!ctx.unit_tdp.empty()) {
      leaf_ctx.unit_tdp.assign(
          ctx.unit_tdp.begin() + shard.first,
          ctx.unit_tdp.begin() + shard.first + shard.size);
    }
    shard.manager->reset(leaf_ctx);
  }

  if (num_shards > 1) {
    // The root tier sees one virtual unit per shard. When even the shard
    // count exceeds the configured fan-out, the root is itself a tree —
    // intermediate aggregator tiers, same code one level up.
    if (num_shards > config_.shard_size && config_.max_levels > 2) {
      CtrlConfig nested = config_;
      nested.max_levels = config_.max_levels - 1;
      nested.leaf_jobs = 1;  // parallelism lives at the real-leaf tier
      auto tree = std::make_unique<TreeController>(nested, root_factory_,
                                                   root_factory_);
      root_tree_ = tree.get();
      root_ = std::move(tree);
    } else {
      root_ = root_factory_();
    }
    ManagerContext root_ctx;
    root_ctx.num_units = num_shards;
    root_ctx.total_budget = ctx.total_budget;
    root_ctx.dt = ctx.dt;
    root_ctx.unit_tdp = ceilings_;
    root_ctx.tdp = root_ctx.unit_tdp[0];
    // ManagerContext's min cap is scalar; give the root the smallest
    // shard's floor and let clamp_shard_budgets enforce the exact
    // per-shard floors after each root decision.
    root_ctx.min_cap = *std::min_element(floors_.begin(), floors_.end());
    root_->reset(root_ctx);
  }

  if (config_.leaf_jobs > 1 && num_shards > 1) {
    pool_ = std::make_unique<ThreadPool>(
        std::min(config_.leaf_jobs, num_shards));
  }
  last_critical_ns_ = 0;
  last_total_ns_ = 0;
}

void TreeController::apply_shard_budget(std::size_t s, Watts budget) {
  if (budget == budgets_[s]) return;
  obs_.event(obs::EventKind::kShardBudget, static_cast<std::int32_t>(s),
             budget, budgets_[s]);
  if (obs_budget_moves_ != nullptr) obs_budget_moves_->add();
  budgets_[s] = budget;
  shards_[s].manager->update_budget(budget);
}

void TreeController::decide(std::span<const Watts> power,
                            std::span<Watts> caps) {
  const std::size_t num_shards = shards_.size();
  if (num_shards == 0) {
    throw std::logic_error("TreeController::decide before reset");
  }
  if (power.size() != static_cast<std::size_t>(ctx_.num_units) ||
      caps.size() != power.size()) {
    throw std::invalid_argument("TreeController::decide: size mismatch");
  }

  std::uint64_t root_ns = 0;
  if (root_ != nullptr) {
    for (std::size_t s = 0; s < num_shards; ++s) {
      const Shard& shard = shards_[s];
      Watts sum = 0.0;
      for (int u = shard.first; u < shard.first + shard.size; ++u) {
        sum += power[static_cast<std::size_t>(u)];
      }
      shard_power_[s] = sum;
    }
    // The root redistributes the shard budgets exactly as a flat manager
    // rewrites unit caps: measured (aggregate) power in, caps out.
    proposed_ = budgets_;
    {
      obs::ScopedSpan span(obs_, obs_root_seconds_, "ctrl_root_decide");
      const auto start = Clock::now();
      root_->decide(shard_power_, proposed_);
      root_ns = elapsed_ns(start);
    }
    if (root_tree_ != nullptr) root_ns = root_tree_->last_critical_path_ns();
    clamp_shard_budgets(proposed_, floors_, ceilings_, ctx_.total_budget);
    for (std::size_t s = 0; s < num_shards; ++s) {
      apply_shard_budget(s, proposed_[s]);
    }
  }

  // Leaf tier: every shard's manager decides over its slice. Shards are
  // independent — private manager state, disjoint spans — so the optional
  // pool changes wall time, never the decisions.
  if (pool_ != nullptr) {
    run_leaves_on_pool(power, caps);
  } else {
    for (std::size_t s = 0; s < num_shards; ++s) run_leaf(s, power, caps);
  }

  std::uint64_t max_leaf_ns = 0;
  std::uint64_t total_leaf_ns = 0;
  for (const Shard& shard : shards_) {
    max_leaf_ns = std::max(max_leaf_ns, shard.last_decide_ns);
    total_leaf_ns += shard.last_decide_ns;
    if (obs_leaf_seconds_ != nullptr) {
      obs_leaf_seconds_->observe(1e-9 *
                                 static_cast<double>(shard.last_decide_ns));
    }
  }
  last_critical_ns_ = root_ns + max_leaf_ns;
  last_total_ns_ = root_ns + total_leaf_ns;
  if (obs_rounds_ != nullptr) obs_rounds_->add();
}

void TreeController::run_leaf(std::size_t s, std::span<const Watts> power,
                              std::span<Watts> caps) {
  Shard& shard = shards_[s];
  const auto first = static_cast<std::size_t>(shard.first);
  const auto size = static_cast<std::size_t>(shard.size);
  const auto start = Clock::now();
  shard.manager->decide(power.subspan(first, size), caps.subspan(first, size));
  shard.last_decide_ns = elapsed_ns(start);
}

void TreeController::run_leaves_on_pool(std::span<const Watts> power,
                                        std::span<Watts> caps) {
  // One task per worker; each claims kLeafClaimBlock shards at a time from
  // a shared counter until none are left. A throwing leaf does not stop
  // its task: every task runs to the end and reports the lowest shard that
  // threw, because the tasks reference this frame and must all finish
  // before it unwinds.
  struct LeafFailure {
    std::size_t shard = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;
  };
  const std::size_t num_shards = shards_.size();
  std::atomic<std::size_t> next_block{0};
  auto claim_blocks = [&]() {
    LeafFailure failure;
    for (;;) {
      const std::size_t first =
          next_block.fetch_add(kLeafClaimBlock, std::memory_order_relaxed);
      if (first >= num_shards) return failure;
      const std::size_t last = std::min(first + kLeafClaimBlock, num_shards);
      for (std::size_t s = first; s < last; ++s) {
        try {
          run_leaf(s, power, caps);
        } catch (...) {
          if (s < failure.shard) failure = {s, std::current_exception()};
        }
      }
    }
  };
  std::vector<std::future<LeafFailure>> tasks;
  tasks.reserve(static_cast<std::size_t>(pool_->size()));
  for (int w = 0; w < pool_->size(); ++w) {
    tasks.push_back(pool_->submit(claim_blocks));
  }
  // Rethrow as a serial pass would: the failure of the lowest shard.
  LeafFailure lowest;
  for (auto& task : tasks) {
    LeafFailure failure = task.get();
    if (failure.shard < lowest.shard) lowest = std::move(failure);
  }
  if (lowest.error) std::rethrow_exception(lowest.error);
}

void TreeController::update_budget(Watts new_total_budget) {
  ctx_.total_budget = new_total_budget;
  if (root_ != nullptr) {
    // The new total reaches the leaves through the root's next decision
    // (decide() forwards every changed shard budget before the leaf runs),
    // preserving the PowerManager contract one level down.
    root_->update_budget(new_total_budget);
  } else if (!shards_.empty()) {
    budgets_[0] = new_total_budget;
    shards_[0].manager->update_budget(new_total_budget);
  }
}

void TreeController::set_obs(const obs::ObsSink& sink) {
  obs_ = sink;
  obs_rounds_ = sink.counter("ctrl_tree_rounds_total",
                             "Tree decision rounds completed");
  obs_budget_moves_ = sink.counter(
      "ctrl_shard_budget_changes_total",
      "Shard budgets reassigned by the root tier");
  obs_root_seconds_ = sink.latency_histogram(
      "ctrl_root_decide_seconds", "Wall time of one root-tier decision");
  obs_leaf_seconds_ = sink.latency_histogram(
      "ctrl_leaf_decide_seconds", "Wall time of one leaf-shard decision");
  if (root_ != nullptr) root_->set_obs(sink);
  // Leaf managers emit their events (evict/readmit, spans) with
  // shard-local unit ids; docs/observability.md notes the scoping.
  for (Shard& shard : shards_) {
    if (shard.manager) shard.manager->set_obs(sink);
  }
}

void TreeController::save_state(ByteWriter& out) const {
  out.u32(kTreeStateMagic);
  out.u32(static_cast<std::uint32_t>(shards_.size()));
  for (const Shard& shard : shards_) {
    out.u32(static_cast<std::uint32_t>(shard.size));
  }
  out.f64(ctx_.total_budget);
  out.doubles(budgets_);
  // One CRC-guarded blob per tier member, so restore can localize a
  // corrupted child snapshot to the shard it belongs to.
  auto blob_of = [](const PowerManager& manager) {
    ByteWriter nested;
    manager.save_state(nested);
    return nested.take();
  };
  {
    const auto root_blob = root_ ? blob_of(*root_) : std::vector<std::uint8_t>{};
    out.u32(crc32(root_blob));
    out.blob(root_blob);
  }
  for (const Shard& shard : shards_) {
    const auto leaf_blob = blob_of(*shard.manager);
    out.u32(crc32(leaf_blob));
    out.blob(leaf_blob);
  }
}

void TreeController::load_state(ByteReader& in) {
  if (in.u32() != kTreeStateMagic) {
    throw std::runtime_error("ctrl_tree snapshot: bad magic");
  }
  const std::uint32_t num_shards = in.u32();
  if (num_shards != shards_.size()) {
    throw std::runtime_error("ctrl_tree snapshot: shard count mismatch");
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (in.u32() != static_cast<std::uint32_t>(shards_[s].size)) {
      throw std::runtime_error("ctrl_tree snapshot: shard " +
                               std::to_string(s) + " size mismatch");
    }
  }
  const Watts total_budget = in.f64();
  auto budgets = in.doubles();
  if (budgets.size() != shards_.size()) {
    throw std::runtime_error("ctrl_tree snapshot: budget vector mismatch");
  }
  auto restore_blob = [&in](PowerManager& manager, const std::string& who) {
    const std::uint32_t expected_crc = in.u32();
    const auto blob = in.blob();
    if (crc32(blob) != expected_crc) {
      throw std::runtime_error("ctrl_tree snapshot: " + who +
                               " state CRC mismatch (corrupted child "
                               "snapshot)");
    }
    ByteReader nested(blob);
    manager.load_state(nested);
    if (!nested.exhausted()) {
      throw std::runtime_error("ctrl_tree snapshot: " + who +
                               " state has trailing bytes");
    }
  };
  {
    const std::uint32_t expected_crc = in.u32();
    const auto blob = in.blob();
    if (crc32(blob) != expected_crc) {
      throw std::runtime_error(
          "ctrl_tree snapshot: root state CRC mismatch (corrupted child "
          "snapshot)");
    }
    if (root_ != nullptr) {
      ByteReader nested(blob);
      root_->load_state(nested);
      if (!nested.exhausted()) {
        throw std::runtime_error(
            "ctrl_tree snapshot: root state has trailing bytes");
      }
    } else if (!blob.empty()) {
      throw std::runtime_error(
          "ctrl_tree snapshot: root state present but tree is single-shard");
    }
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    restore_blob(*shards_[s].manager, "shard " + std::to_string(s));
  }
  // Re-arm the live budgets last: the leaves were reset with fair shares
  // and load_state does not carry a manager's budget, so resync each to
  // the snapshot's assignment.
  ctx_.total_budget = total_budget;
  if (root_ != nullptr) root_->update_budget(total_budget);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    budgets_[s] = -1.0;  // force apply_shard_budget to propagate
    apply_shard_budget(s, budgets[s]);
  }
}

}  // namespace dps
