// Tests of the hierarchical control plane (src/ctrl/): the in-sim
// TreeController (sharding, invariants, parallel determinism, tree
// checkpoints) and the TCP AggregatorNode (two-level tree over loopback,
// restart from a checkpoint while a sibling keeps running).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/dps_manager.hpp"
#include "ctrl/aggregator.hpp"
#include "ctrl/ctrl_config.hpp"
#include "ctrl/tree.hpp"
#include "obs/sink.hpp"
#include "util/bytes.hpp"
#include "util/ini.hpp"

namespace {

using namespace dps;

ManagerContext make_ctx(int units, Watts per_unit_budget = 110.0) {
  ManagerContext ctx;
  ctx.num_units = units;
  ctx.total_budget = per_unit_budget * units;
  ctx.tdp = 165.0;
  ctx.min_cap = 40.0;
  return ctx;
}

/// Half the fleet hungry (pins its cap), half quiet — the overprovisioned
/// mix the budget should flow through.
void fill_power(std::span<const Watts> caps, std::span<Watts> power) {
  for (std::size_t u = 0; u < power.size(); ++u) {
    power[u] = u % 2 == 0 ? caps[u] * 0.99 : 30.0;
  }
}

std::string tmp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(TreeController, ShardLayoutAndLevels) {
  CtrlConfig config;
  config.shard_size = 4;
  config.max_levels = 3;
  TreeController tree(config);
  tree.reset(make_ctx(10));  // 4 + 4 + 2

  EXPECT_EQ(tree.num_shards(), 3);
  EXPECT_EQ(tree.shard_size(0), 4);
  EXPECT_EQ(tree.shard_size(2), 2);
  EXPECT_EQ(tree.levels(), 2);

  // 3 shards fit one root tier directly; 30 shards need an intermediate.
  tree.reset(make_ctx(120));
  EXPECT_EQ(tree.num_shards(), 30);
  EXPECT_EQ(tree.levels(), 3);

  // max_levels = 1 forces a flat (single-shard) tree at any size.
  CtrlConfig flat = config;
  flat.max_levels = 1;
  TreeController flat_tree(flat);
  flat_tree.reset(make_ctx(120));
  EXPECT_EQ(flat_tree.num_shards(), 1);
  EXPECT_EQ(flat_tree.levels(), 1);
}

TEST(TreeController, SingleShardMatchesFlatManager) {
  const int units = 8;
  CtrlConfig config;
  config.shard_size = 32;  // > units: one shard, no root tier
  TreeController tree(config);
  DpsManager flat;
  tree.reset(make_ctx(units));
  flat.reset(make_ctx(units));

  std::vector<Watts> caps_tree(units, 110.0), caps_flat(units, 110.0);
  std::vector<Watts> power(units, 0.0);
  for (int r = 0; r < 40; ++r) {
    fill_power(caps_tree, power);
    tree.decide(power, caps_tree);
    flat.decide(power, caps_flat);
    for (int u = 0; u < units; ++u) {
      ASSERT_EQ(caps_tree[u], caps_flat[u]) << "round " << r << " unit " << u;
    }
  }
}

TEST(TreeController, CapsRespectBudgetAndShardBoxes) {
  const int units = 24;
  CtrlConfig config;
  config.shard_size = 6;
  TreeController tree(config);
  const auto ctx = make_ctx(units);
  tree.reset(ctx);

  std::vector<Watts> caps(units, ctx.constant_cap());
  std::vector<Watts> power(units, 0.0);
  for (int r = 0; r < 60; ++r) {
    fill_power(caps, power);
    tree.decide(power, caps);

    Watts budget_sum = 0.0;
    for (int s = 0; s < tree.num_shards(); ++s) {
      const Watts b = tree.shard_budgets()[s];
      budget_sum += b;
      EXPECT_GE(b, tree.shard_size(s) * ctx.min_cap - 1e-6);
      EXPECT_LE(b, tree.shard_size(s) * ctx.tdp + 1e-6);
      // Each leaf honours its shard budget (its PowerManager contract).
      Watts shard_caps = 0.0;
      for (int u = s * 6; u < s * 6 + tree.shard_size(s); ++u) {
        shard_caps += caps[u];
      }
      EXPECT_LE(shard_caps, b + 1e-6) << "round " << r << " shard " << s;
    }
    EXPECT_LE(budget_sum, ctx.total_budget + 1e-6) << "round " << r;
  }
  // The hungry/quiet split must have moved budget between units.
  EXPECT_GT(caps[0], caps[1]);
}

/// One tree layout for the leaf-pool determinism test.
struct LeafLayout {
  int units;
  int shard_size;
  int levels;  // expected tiers, leaf tier included
};

class TreeLeafTier : public ::testing::TestWithParam<int> {};

// Pooled leaf tasks claim shards in blocks; whatever the worker count,
// every round's caps must be bitwise those of the inline (leaf_jobs = 1)
// tree. The layouts cover a shard count that is no multiple of the claim
// block (13 shards, a short last shard), fewer shards than workers (2),
// five equal shards, and a three-tier tree whose root is itself a tree
// (30 shards of 4 units).
TEST_P(TreeLeafTier, ParallelLeavesBitIdentical) {
  const int leaf_jobs = GetParam();
  for (const LeafLayout layout : {LeafLayout{203, 16, 2}, LeafLayout{12, 8, 2},
                                  LeafLayout{40, 8, 2}, LeafLayout{120, 4, 3}}) {
    SCOPED_TRACE("units " + std::to_string(layout.units) + " shard " +
                 std::to_string(layout.shard_size));
    CtrlConfig serial_cfg;
    serial_cfg.shard_size = layout.shard_size;
    serial_cfg.leaf_jobs = 1;
    CtrlConfig parallel_cfg = serial_cfg;
    parallel_cfg.leaf_jobs = leaf_jobs;

    TreeController serial(serial_cfg), parallel(parallel_cfg);
    serial.reset(make_ctx(layout.units));
    parallel.reset(make_ctx(layout.units));
    ASSERT_EQ(parallel.levels(), layout.levels);

    const auto n = static_cast<std::size_t>(layout.units);
    std::vector<Watts> caps_s(n, 110.0), caps_p(n, 110.0);
    std::vector<Watts> power(n, 0.0);
    for (int r = 0; r < 50; ++r) {
      fill_power(caps_s, power);
      serial.decide(power, caps_s);
      parallel.decide(power, caps_p);
      for (std::size_t u = 0; u < n; ++u) {
        ASSERT_EQ(caps_s[u], caps_p[u]) << "round " << r << " unit " << u;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LeafJobs, TreeLeafTier, ::testing::Values(2, 3, 8));

/// A DPS leaf whose first decide() either throws, naming its shard, or
/// sleeps first, so that other leaf tasks are still running when a
/// leaf's exception reaches the tree.
class FirstDecideLeaf final : public PowerManager {
 public:
  FirstDecideLeaf(int shard, bool throws) : shard_(shard), throws_(throws) {}
  std::string_view name() const override { return "first_decide"; }
  void reset(const ManagerContext& ctx) override { inner_.reset(ctx); }
  void decide(std::span<const Watts> power, std::span<Watts> caps) override {
    if (first_) {
      first_ = false;
      if (throws_) throw std::runtime_error("leaf " + std::to_string(shard_));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    inner_.decide(power, caps);
  }
  void update_budget(Watts budget) override { inner_.update_budget(budget); }

 private:
  int shard_;
  bool throws_;
  bool first_ = true;
  DpsManager inner_;
};

// A throwing leaf must not let decide() unwind while other leaf tasks still
// run against its frame: decide waits for them all, then rethrows the
// lowest failing shard's exception, the one the inline tree throws. The
// pooled tree then decides again and is destroyed cleanly (the sanitizer
// jobs run this test).
TEST(TreeController, LeafExceptionWaitsForAllLeavesAndRethrowsLowestShard) {
  const int units = 40;
  for (const int leaf_jobs : {1, 3}) {
    CtrlConfig config;
    config.shard_size = 4;  // 10 shards under a nested root; the two
                            // failing ones sit in different claim blocks
    config.leaf_jobs = leaf_jobs;
    int made = 0;
    TreeController tree(
        config,
        [&made] {
          const int shard = made++;
          return std::make_unique<FirstDecideLeaf>(shard,
                                                   shard == 3 || shard == 9);
        },
        [] { return std::make_unique<DpsManager>(); });
    const auto ctx = make_ctx(units);
    tree.reset(ctx);
    ASSERT_EQ(made, 10);

    std::vector<Watts> caps(units, ctx.constant_cap());
    std::vector<Watts> power(units, 0.0);
    fill_power(caps, power);
    try {
      tree.decide(power, caps);
      ADD_FAILURE() << "decide did not throw at leaf_jobs " << leaf_jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "leaf 3") << "leaf_jobs " << leaf_jobs;
    }
    // Every leaf task has finished by then: none writes caps afterwards.
    const std::vector<Watts> at_throw = caps;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(caps, at_throw) << "leaf_jobs " << leaf_jobs;
    // The inline pass stopped at shard 3, so shard 9's leaf has yet to
    // throw; the pool ran every leaf and is past both failures.
    if (leaf_jobs == 1) continue;

    for (int r = 0; r < 3; ++r) {
      fill_power(caps, power);
      tree.decide(power, caps);
    }
    Watts sum = 0.0;
    for (const Watts c : caps) sum += c;
    EXPECT_LE(sum, ctx.total_budget + 1e-6) << "leaf_jobs " << leaf_jobs;
  }
}

TEST(TreeController, BudgetCutShedsOnNextDecide) {
  const int units = 16;
  CtrlConfig config;
  config.shard_size = 4;
  TreeController tree(config);
  const auto ctx = make_ctx(units);
  tree.reset(ctx);

  std::vector<Watts> caps(units, ctx.constant_cap());
  std::vector<Watts> power(units, 0.0);
  for (int r = 0; r < 20; ++r) {
    fill_power(caps, power);
    tree.decide(power, caps);
  }

  const Watts cut = ctx.total_budget * 0.6;
  tree.update_budget(cut);
  // The root tier propagates the cut through its next decision; give it
  // the two rounds the hierarchy needs (root reassigns, leaves shed).
  for (int r = 0; r < 2; ++r) {
    fill_power(caps, power);
    tree.decide(power, caps);
  }
  Watts sum = 0.0;
  for (const Watts c : caps) sum += c;
  EXPECT_LE(sum, cut + 1e-6);
}

TEST(TreeController, SaveLoadRoundTripContinuesIdentically) {
  const int units = 20;
  CtrlConfig config;
  config.shard_size = 5;
  const auto ctx = make_ctx(units);

  TreeController original(config);
  original.reset(ctx);
  std::vector<Watts> caps_a(units, ctx.constant_cap());
  std::vector<Watts> power(units, 0.0);
  for (int r = 0; r < 30; ++r) {
    fill_power(caps_a, power);
    original.decide(power, caps_a);
  }

  ByteWriter out;
  original.save_state(out);

  TreeController restored(config);
  restored.reset(ctx);
  ByteReader in(out.bytes());
  restored.load_state(in);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(restored.shard_budgets(), original.shard_budgets());

  // Both controllers must continue bit-identically from the snapshot.
  std::vector<Watts> caps_b = caps_a;
  for (int r = 0; r < 25; ++r) {
    fill_power(caps_a, power);
    original.decide(power, caps_a);
    std::vector<Watts> power_b(units);
    fill_power(caps_b, std::span<Watts>(power_b));
    restored.decide(power_b, caps_b);
    for (int u = 0; u < units; ++u) {
      ASSERT_EQ(caps_a[u], caps_b[u]) << "round " << r << " unit " << u;
    }
  }
}

TEST(TreeController, LoadRejectsCorruptedShardBlobNamingShard) {
  const int units = 12;
  CtrlConfig config;
  config.shard_size = 4;
  const auto ctx = make_ctx(units);

  TreeController tree(config);
  tree.reset(ctx);
  std::vector<Watts> caps(units, 110.0), power(units, 0.0);
  for (int r = 0; r < 10; ++r) {
    fill_power(caps, power);
    tree.decide(power, caps);
  }
  ByteWriter out;
  tree.save_state(out);
  // The serialized layout ends with shard 2's CRC-guarded blob; flipping
  // its last byte must be caught and attributed to that shard.
  auto bytes = out.take();
  bytes.back() ^= 0xff;

  TreeController fresh(config);
  fresh.reset(ctx);
  ByteReader in(bytes);
  try {
    fresh.load_state(in);
    FAIL() << "corrupted shard blob was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("shard 2"), std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("CRC"), std::string::npos)
        << error.what();
  }
}

TEST(TreeController, LoadRejectsLayoutMismatch) {
  CtrlConfig config;
  config.shard_size = 4;
  TreeController a(config);
  a.reset(make_ctx(8));
  ByteWriter out;
  a.save_state(out);

  TreeController b(config);
  b.reset(make_ctx(12));
  ByteReader in(out.bytes());
  EXPECT_THROW(b.load_state(in), std::runtime_error);
}

TEST(CtrlConfig, IniRoundTripAndValidation) {
  const auto ini = IniFile::parse(
      "[ctrl]\n"
      "shard_size = 16\n"
      "max_levels = 2\n"
      "leaf_jobs = 3\n"
      "parent_host = head0\n"
      "parent_port = 9570\n"
      "parent_unit = 1\n");
  const CtrlConfig config = ctrl_config_from_ini(ini);
  EXPECT_EQ(config.shard_size, 16);
  EXPECT_EQ(config.max_levels, 2);
  EXPECT_EQ(config.leaf_jobs, 3);
  EXPECT_EQ(config.parent_host, "head0");
  EXPECT_EQ(config.parent_port, 9570);
  EXPECT_EQ(config.parent_unit, 1);

  // Defaults survive an empty file.
  const CtrlConfig defaults = ctrl_config_from_ini(IniFile::parse(""));
  EXPECT_EQ(defaults.shard_size, 32);
  EXPECT_EQ(defaults.parent_port, 0);

  EXPECT_THROW(ctrl_config_from_ini(IniFile::parse("[ctrl]\nshard_size = 0\n")),
               std::runtime_error);
  EXPECT_THROW(
      ctrl_config_from_ini(IniFile::parse("[ctrl]\nparent_port = 70000\n")),
      std::runtime_error);
  EXPECT_THROW(
      ctrl_config_from_ini(IniFile::parse("[ctrl]\nparent_host = h\n")),
      std::runtime_error);  // host without port
}

TEST(AggregatorCheckpoint, FileRoundTripAndCorruptionRejected) {
  DpsManager manager;
  const auto ctx = make_ctx(4, 95.0);
  manager.reset(ctx);
  std::vector<Watts> caps(4, 95.0), power(4, 0.0);
  for (int r = 0; r < 8; ++r) {
    fill_power(caps, power);
    manager.decide(power, caps);
  }

  AggregatorCheckpoint ckpt;
  ckpt.parent_unit = 1;
  ckpt.inner = make_checkpoint(manager, ctx, 8, caps, caps);

  const std::string path = tmp_path("aggr_ckpt.bin");
  write_aggregator_checkpoint_file(path, ckpt);
  const AggregatorCheckpoint loaded = read_aggregator_checkpoint_file(path);
  EXPECT_EQ(loaded.parent_unit, 1);
  EXPECT_EQ(loaded.inner.round, 8u);
  EXPECT_EQ(loaded.inner.manager_name, "dps");
  EXPECT_EQ(loaded.inner.ctx.total_budget, ctx.total_budget);
  EXPECT_EQ(loaded.inner.caps, ckpt.inner.caps);

  // A flat dpsd checkpoint is a different format — refused by magic.
  const std::string flat_path = tmp_path("flat_ckpt.bin");
  write_checkpoint_file(flat_path, ckpt.inner);
  EXPECT_THROW(read_aggregator_checkpoint_file(flat_path),
               std::runtime_error);

  // Corrupt one payload byte: the CRC check must reject the file.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, -1, SEEK_END);
  const int last = std::fgetc(f);
  std::fseek(f, -1, SEEK_END);
  std::fputc(last ^ 0xff, f);
  std::fclose(f);
  EXPECT_THROW(read_aggregator_checkpoint_file(path), std::runtime_error);
}

/// Two-level tree over real TCP: a root controller (per-unit-normalized
/// context) over two aggregators, each serving two leaf clients. Shard 0
/// is hungry (leaves pin their caps), shard 1 quiet; after a few dozen
/// rounds the root must have shifted budget toward shard 0 while the
/// cluster-wide cap sum stays within the global budget.
TEST(ControlTree, TwoLevelTcpSmoke) {
  constexpr int kShards = 2;
  constexpr int kLeaves = 2;        // units per shard
  constexpr int kRootRounds = 40;
  constexpr Watts kClusterBudget = 110.0 * kShards * kLeaves;

  ControlServer root(0, kShards);
  // Per-unit normalization: the root sees mean watts per unit, so its
  // budget is the cluster budget divided by the units one child spans.
  ManagerContext root_ctx = make_ctx(kShards);
  root_ctx.total_budget = kClusterBudget / kLeaves;

  const obs::ObsSink obs = obs::ObsSink::create();

  std::vector<std::unique_ptr<DpsManager>> shard_managers;
  std::vector<std::unique_ptr<AggregatorNode>> aggregators;
  for (int s = 0; s < kShards; ++s) {
    CtrlConfig ctrl;
    ctrl.parent_host = "127.0.0.1";
    ctrl.parent_port = root.port();
    shard_managers.push_back(std::make_unique<DpsManager>());
    aggregators.push_back(std::make_unique<AggregatorNode>(
        *shard_managers.back(), make_ctx(kLeaves), ctrl));
  }
  aggregators[0]->set_obs(obs);

  // Leaf clients: shard 0 hungry, shard 1 quiet.
  std::vector<std::thread> leaves;
  for (int s = 0; s < kShards; ++s) {
    for (int u = 0; u < kLeaves; ++u) {
      leaves.emplace_back([&, s] {
        Watts cap = 110.0;
        NodeClient client(
            [&]() -> Watts { return s == 0 ? cap * 0.99 : 25.0; },
            [&](Watts c) { cap = c; });
        client.connect(aggregators[s]->port());
        client.run();
      });
    }
  }

  std::vector<std::thread> aggr_threads;
  for (int s = 0; s < kShards; ++s) {
    aggr_threads.emplace_back([&, s] {
      aggregators[s]->accept_children();
      aggregators[s]->begin();
      aggregators[s]->connect_parent();
      aggregators[s]->run();  // until the root's orderly shutdown
    });
  }

  root.accept_all();
  DpsManager root_manager;
  root.begin_session(root_manager, root_ctx);
  for (int r = 0; r < kRootRounds; ++r) root.run_round(root_manager);
  root.shutdown();
  for (auto& t : aggr_threads) t.join();
  for (auto& t : leaves) t.join();

  // Budget flowed to the hungry shard and the global cap is respected.
  EXPECT_GT(aggregators[0]->shard_budget(), aggregators[1]->shard_budget());
  EXPECT_LE(aggregators[0]->shard_budget() + aggregators[1]->shard_budget(),
            kClusterBudget + 1e-6);
  EXPECT_GE(aggregators[0]->rounds(), static_cast<std::uint64_t>(kRootRounds));
  EXPECT_NE(aggregators[0]->parent_unit(), -1);

  // The aggregator emitted the new control-plane events.
  int reports = 0, budgets = 0;
  for (const auto& event : obs.observer()->events().snapshot()) {
    if (event.kind == obs::EventKind::kShardReport) ++reports;
    if (event.kind == obs::EventKind::kShardBudget) ++budgets;
  }
  EXPECT_GT(reports, 0);
  EXPECT_GT(budgets, 0);
}

/// Aggregator crash/restart: shard 0's aggregator checkpoints, dies
/// abruptly, and a restarted instance resumes from the snapshot — its
/// resilient leaves reconnect, its old parent slot is reclaimed — while
/// shard 1 and the root keep running rounds throughout.
TEST(ControlTree, AggregatorRestartResumesFromCheckpoint) {
  constexpr int kShards = 2;
  constexpr int kLeaves = 2;
  NetConfig root_net;
  root_net.round_deadline_s = 0.2;  // score the dead shard 0 W quickly

  ControlServer root(0, kShards, false, root_net);
  ManagerContext root_ctx = make_ctx(kShards);
  root_ctx.total_budget = 110.0 * kShards;  // per-unit normalized

  std::atomic<bool> stop{false};
  std::atomic<long> root_rounds{0};
  DpsManager root_manager;
  std::thread root_thread([&] {
    root.accept_all();
    root.begin_session(root_manager, root_ctx);
    while (!stop) {
      root.run_round(root_manager);
      ++root_rounds;
    }
    root.shutdown();
  });

  // Shard 1: a well-behaved sibling for the whole test.
  DpsManager sibling_manager;
  CtrlConfig sibling_ctrl;
  sibling_ctrl.parent_host = "127.0.0.1";
  sibling_ctrl.parent_port = root.port();
  AggregatorNode sibling(sibling_manager, make_ctx(kLeaves), sibling_ctrl);
  std::vector<std::thread> sibling_leaves;
  for (int u = 0; u < kLeaves; ++u) {
    sibling_leaves.emplace_back([&] {
      Watts cap = 110.0;
      NodeClient client([&]() -> Watts { return 30.0; },
                        [&](Watts c) { cap = c; });
      client.connect(sibling.port());
      client.run();
    });
  }
  std::thread sibling_thread([&] {
    sibling.accept_children();
    sibling.begin();
    sibling.connect_parent();
    sibling.run();
  });

  // Shard 0, phase A: run a few rounds, checkpoint, die abruptly.
  const std::string ckpt_path = tmp_path("restart_aggr.bin");
  CtrlConfig ctrl;
  ctrl.parent_host = "127.0.0.1";
  ctrl.parent_port = root.port();
  std::uint16_t shard0_port = 0;
  int shard0_parent_unit = -1;
  Watts budget_at_ckpt = 0.0;
  std::vector<std::thread> shard0_leaves;
  {
    DpsManager manager;
    AggregatorNode aggregator(manager, make_ctx(kLeaves), ctrl);
    shard0_port = aggregator.port();

    // Resilient leaves: they must survive the crash and reconnect to the
    // restarted aggregator on the same port.
    for (int u = 0; u < kLeaves; ++u) {
      NodeClientConfig leaf_net;
      leaf_net.connect_attempts = 30;
      leaf_net.jitter_seed = 100 + static_cast<std::uint64_t>(u);
      shard0_leaves.emplace_back([port = shard0_port, leaf_net] {
        Watts cap = 110.0;
        NodeClient client([&]() -> Watts { return cap * 0.99; },
                          [&](Watts c) { cap = c; }, leaf_net);
        client.run_resilient(port);
      });
    }

    aggregator.accept_children();
    aggregator.begin();
    aggregator.connect_parent();
    for (int r = 0; r < 10; ++r) aggregator.run_round();
    write_aggregator_checkpoint_file(ckpt_path, aggregator.make_checkpoint());
    shard0_parent_unit = aggregator.parent_unit();
    budget_at_ckpt = aggregator.shard_budget();
    ASSERT_NE(shard0_parent_unit, -1);
    // Destructors close every socket without a shutdown message — the
    // crash. The root scores the shard 0 W; the leaves begin reconnecting.
  }

  const long rounds_before_restart = root_rounds.load();

  // Phase B: restart on the same port from the checkpoint.
  {
    DpsManager manager;
    AggregatorNode aggregator(manager, make_ctx(kLeaves), ctrl, NetConfig{},
                              shard0_port);
    aggregator.accept_children();  // the resilient leaves readmit
    const AggregatorCheckpoint ckpt =
        read_aggregator_checkpoint_file(ckpt_path);
    aggregator.resume(ckpt);
    EXPECT_EQ(aggregator.shard_budget(), budget_at_ckpt);
    aggregator.connect_parent();
    // The old parent slot was reclaimed via the checkpoint's unit hint.
    EXPECT_EQ(aggregator.parent_unit(), shard0_parent_unit);
    EXPECT_GE(aggregator.rounds(), 10u);
    for (int r = 0; r < 10; ++r) aggregator.run_round();
    EXPECT_GE(aggregator.rounds(), 20u);
    aggregator.shutdown_children();
  }
  for (auto& t : shard0_leaves) t.join();

  // The root and the sibling kept serving rounds across the outage.
  EXPECT_GT(root_rounds.load(), rounds_before_restart);
  stop = true;
  root_thread.join();
  sibling_thread.join();
  for (auto& t : sibling_leaves) t.join();
}

}  // namespace
