// Checkpoint bytes of the managers that keep per-unit windows (DPS, the
// SLURM baseline and a DPS tree), pinned against the per-window format of
// the layout in which every unit owned a RollingWindow, and snapshots
// written by that layout restored.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/dps_config.hpp"
#include "core/dps_manager.hpp"
#include "ctrl/tree.hpp"
#include "managers/slurm_stateless.hpp"
#include "signal/kalman.hpp"
#include "signal/rolling.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace dps {
namespace {

using Readings = std::vector<std::vector<Watts>>;

constexpr int kUnits = 12;
constexpr int kShardSize = 4;

ManagerContext make_ctx(int units) {
  ManagerContext ctx;
  ctx.num_units = units;
  ctx.total_budget = 110.0 * units;
  ctx.tdp = 165.0;
  ctx.min_cap = 40.0;
  ctx.dt = 1.0;
  return ctx;
}

// Unit u's demand at step t: a square wave with a per-unit phase plus a
// small ramp, every value exact in binary64.
Watts demand_of(int unit, int step) {
  const bool high = (step / 4 + unit) % 3 == 0;
  return (high ? 150.0 : 60.0) + 0.25 * ((unit * 7 + step * 13) % 17);
}

// Steps [start, end) in closed loop: each unit draws min(demand, cap).
// Appends each step's readings to `readings` when given.
void drive(PowerManager& manager, std::vector<Watts>& caps, int start,
           int end, Readings* readings = nullptr) {
  std::vector<Watts> power(caps.size());
  for (int t = start; t < end; ++t) {
    for (std::size_t u = 0; u < caps.size(); ++u) {
      power[u] = std::min(demand_of(static_cast<int>(u), t), caps[u]);
    }
    if (readings != nullptr) readings->push_back(power);
    manager.decide(power, caps);
  }
}

enum class Kind { kDps, kSlurm, kTree };

std::unique_ptr<PowerManager> make(Kind kind) {
  switch (kind) {
    case Kind::kDps:
      return std::make_unique<DpsManager>();
    case Kind::kSlurm:
      return std::make_unique<SlurmStatelessManager>();
    case Kind::kTree: {
      CtrlConfig config;
      config.shard_size = kShardSize;
      config.max_levels = 2;
      return std::make_unique<TreeController>(config);
    }
  }
  return nullptr;
}

// The windows of the former layout, one RollingWindow per unit, fed what a
// manager saw.
struct ReferenceWindows {
  std::vector<RollingWindow> mimd;    // the stateless module's
  std::vector<Kalman1D> filters;      // DPS's history: filters,
  std::vector<RollingWindow> power;   // estimate windows
  std::vector<RollingWindow> durations;  // and step durations
};

ReferenceWindows reference_slurm(const Readings& readings,
                                 std::size_t window) {
  ReferenceWindows ref;
  ref.mimd.assign(readings.front().size(), RollingWindow(window));
  for (const auto& power : readings) {
    for (std::size_t u = 0; u < power.size(); ++u) ref.mimd[u].push(power[u]);
  }
  return ref;
}

ReferenceWindows reference_dps(const Readings& readings, Seconds dt) {
  const DpsConfig config;
  ReferenceWindows ref = reference_slurm(
      readings, static_cast<std::size_t>(config.mimd.dec_window_steps));
  const std::size_t units = readings.front().size();
  ref.power.assign(units, RollingWindow(config.history_length));
  ref.durations.assign(units, RollingWindow(config.history_length));
  for (std::size_t t = 0; t < readings.size(); ++t) {
    for (std::size_t u = 0; u < units; ++u) {
      const Watts measured = readings[t][u];
      if (t == 0) {
        // The history seeds each filter at its first reading.
        ref.filters.emplace_back(config.kf_process_variance,
                                 config.kf_measurement_variance, measured,
                                 config.kf_measurement_variance);
      } else {
        ref.filters[u].update(measured);
      }
      ref.power[u].push(ref.filters[u].estimate());
      ref.durations[u].push(dt);
    }
  }
  return ref;
}

// Copies a state from `in` to `out` field by field, writing each window
// (and each filter) from `ref` instead of from `in`. Where the state's own
// window bytes equal the reference's, the copy equals the original.
void copy_mimd(ByteReader& in, ByteWriter& out, const ReferenceWindows& ref) {
  Rng rng(0);
  rng.load(in);
  rng.save(out);
  out.bools(in.bools());
  out.doubles(in.doubles());
  out.i64(in.i64());
  const std::uint64_t windows = in.u64();
  ASSERT_EQ(windows, ref.mimd.size());
  out.u64(windows);
  for (const auto& window : ref.mimd) {
    in.doubles();
    window.save(out);
  }
}

std::vector<std::uint8_t> rewrite_slurm(std::span<const std::uint8_t> state,
                                        const ReferenceWindows& ref) {
  ByteReader in(state);
  ByteWriter out;
  copy_mimd(in, out, ref);
  EXPECT_TRUE(in.exhausted());
  return out.take();
}

std::vector<std::uint8_t> rewrite_dps(std::span<const std::uint8_t> state,
                                      const ReferenceWindows& ref) {
  ByteReader in(state);
  ByteWriter out;
  copy_mimd(in, out, ref);
  const std::uint64_t units = in.u64();
  EXPECT_EQ(units, ref.power.size());
  out.u64(units);
  out.boolean(in.boolean());
  for (const auto& filter : ref.filters) {
    for (int i = 0; i < 4; ++i) in.f64();
    filter.save(out);
  }
  for (const auto& window : ref.power) {
    in.doubles();
    window.save(out);
  }
  for (const auto& window : ref.durations) {
    in.doubles();
    window.save(out);
  }
  // Priorities, the restore flag and the eviction bookkeeping hold no
  // window: copied as they are.
  std::vector<std::uint8_t> bytes = out.take();
  const auto tail = static_cast<std::ptrdiff_t>(in.remaining());
  bytes.insert(bytes.end(), state.end() - tail, state.end());
  return bytes;
}

// The tree's frame, with every tier member's blob rewritten by rewrite_dps
// (and its CRC recomputed).
std::vector<std::uint8_t> rewrite_tree(
    std::span<const std::uint8_t> state, const ReferenceWindows& root,
    const std::vector<ReferenceWindows>& leaves) {
  ByteReader in(state);
  ByteWriter out;
  out.u32(in.u32());  // magic
  const std::uint32_t shards = in.u32();
  EXPECT_EQ(shards, leaves.size());
  out.u32(shards);
  for (std::uint32_t s = 0; s < shards; ++s) out.u32(in.u32());
  out.f64(in.f64());
  out.doubles(in.doubles());
  const auto member = [&](const ReferenceWindows& ref) {
    in.u32();
    const auto blob = rewrite_dps(in.blob(), ref);
    out.u32(crc32(blob));
    out.blob(blob);
  };
  member(root);
  for (const auto& leaf : leaves) member(leaf);
  EXPECT_TRUE(in.exhausted());
  return out.take();
}

// Unit 1's window replaced by one holding a single sample, which leaves
// the windows with different lengths.
void make_ragged(std::vector<RollingWindow>& windows) {
  windows[1] = RollingWindow(windows[1].capacity());
  windows[1].push(1.0);
}

// The state bytes the former layout writes for `kind` after `readings`
// (the rewrite of `state` with reference windows), or with ragged windows.
std::vector<std::uint8_t> reference_bytes(Kind kind,
                                          std::span<const std::uint8_t> state,
                                          const Readings& readings,
                                          bool ragged = false) {
  const Seconds dt = make_ctx(kUnits).dt;
  switch (kind) {
    case Kind::kDps: {
      ReferenceWindows ref = reference_dps(readings, dt);
      if (ragged) make_ragged(ref.power);
      return rewrite_dps(state, ref);
    }
    case Kind::kSlurm: {
      ReferenceWindows ref = reference_slurm(
          readings,
          static_cast<std::size_t>(slurm_plugin_defaults().dec_window_steps));
      if (ragged) make_ragged(ref.mimd);
      return rewrite_slurm(state, ref);
    }
    case Kind::kTree: {
      // The root sees each shard's summed power; each leaf its slice.
      Readings root(readings.size());
      std::vector<Readings> leaves(kUnits / kShardSize);
      for (std::size_t t = 0; t < readings.size(); ++t) {
        for (std::size_t s = 0; s < leaves.size(); ++s) {
          const auto first = readings[t].begin() +
                             static_cast<std::ptrdiff_t>(s * kShardSize);
          leaves[s].emplace_back(first, first + kShardSize);
          Watts sum = 0.0;
          for (const Watts w : leaves[s].back()) sum += w;
          root[t].push_back(sum);
        }
      }
      std::vector<ReferenceWindows> leaf_refs;
      for (const auto& leaf : leaves) {
        leaf_refs.push_back(reference_dps(leaf, dt));
      }
      if (ragged) make_ragged(leaf_refs[0].power);
      return rewrite_tree(state, reference_dps(root, dt), leaf_refs);
    }
  }
  return {};
}

std::vector<std::uint8_t> state_of(const PowerManager& manager) {
  ByteWriter out;
  manager.save_state(out);
  return out.take();
}

const char* label(Kind kind) {
  switch (kind) {
    case Kind::kDps:
      return "dps";
    case Kind::kSlurm:
      return "slurm";
    case Kind::kTree:
      return "tree";
  }
  return "";
}

// While the windows fill (5 steps), once full (20, the DPS history and
// the SLURM decrease window) and after the ring wraps (27, 53), the saved
// bytes are those of the per-window layout.
TEST(WindowCheckpointBytes, MatchThePerUnitWindowLayout) {
  for (const Kind kind : {Kind::kDps, Kind::kSlurm, Kind::kTree}) {
    SCOPED_TRACE(label(kind));
    const auto manager = make(kind);
    const ManagerContext ctx = make_ctx(kUnits);
    manager->reset(ctx);
    std::vector<Watts> caps(kUnits, ctx.constant_cap());
    Readings readings;
    int step = 0;
    for (const int checkpoint : {5, 20, 27, 53}) {
      drive(*manager, caps, step, checkpoint, &readings);
      step = checkpoint;
      const auto state = state_of(*manager);
      EXPECT_EQ(state, reference_bytes(kind, state, readings))
          << "after " << step << " steps";
    }
  }
}

// Windows of different lengths cannot share one head: a snapshot holding
// them is refused, for every manager that keeps windows.
TEST(WindowCheckpointBytes, RaggedWindowsAreRefused) {
  for (const Kind kind : {Kind::kDps, Kind::kSlurm, Kind::kTree}) {
    SCOPED_TRACE(label(kind));
    const auto manager = make(kind);
    const ManagerContext ctx = make_ctx(kUnits);
    manager->reset(ctx);
    std::vector<Watts> caps(kUnits, ctx.constant_cap());
    Readings readings;
    drive(*manager, caps, 0, 27, &readings);
    const auto state = state_of(*manager);

    const auto ragged = reference_bytes(kind, state, readings, true);
    ASSERT_NE(ragged, state);
    const auto fresh = make(kind);
    fresh->reset(ctx);
    ByteReader in(ragged);
    EXPECT_THROW(fresh->load_state(in), std::runtime_error);
  }
}

// Snapshots written by the per-window layout after 27 steps of drive()
// (DPSCKPT files, from the build before window banks). This build reaches
// the same state bytes and caps after the same 27 steps, and a manager
// restored from the file continues bit-identically with one that was never
// interrupted.
TEST(WindowCheckpointBytes, PerWindowLayoutSnapshotsRestoreAndContinue) {
  for (const Kind kind : {Kind::kDps, Kind::kSlurm, Kind::kTree}) {
    SCOPED_TRACE(label(kind));
    const ControlCheckpoint ckpt = read_checkpoint_file(
        std::string(DPS_SOURCE_DIR) + "/tests/data/window_layout_" +
        label(kind) + ".ckpt");
    ASSERT_EQ(ckpt.round, 27u);

    const auto live = make(kind);
    const ManagerContext ctx = make_ctx(kUnits);
    live->reset(ctx);
    std::vector<Watts> caps(kUnits, ctx.constant_cap());
    drive(*live, caps, 0, 27);
    EXPECT_EQ(state_of(*live), ckpt.manager_state);
    EXPECT_EQ(caps, ckpt.caps);

    const auto restored = make(kind);
    restore_manager(*restored, ckpt);
    std::vector<Watts> restored_caps = ckpt.caps;
    for (int step = 27; step < 80; ++step) {
      drive(*live, caps, step, step + 1);
      drive(*restored, restored_caps, step, step + 1);
      ASSERT_EQ(restored_caps, caps) << "step " << step;
    }
    EXPECT_EQ(state_of(*restored), state_of(*live));
  }
}

}  // namespace
}  // namespace dps
