/// Extension experiment: control-plane scalability. The paper's deployment
/// is one controller over 20 sockets; this bench sweeps the unit count
/// from 10 to 100k and compares a single flat DPS controller against the
/// hierarchical control plane (src/ctrl/): DPS leaves over shards of 32
/// units under DPS budget-redistribution tiers.
///
/// The quantity compared is the per-round *decide* latency — for the tree,
/// the distributed critical path (root tier, recursively, plus the slowest
/// leaf), i.e. the wall time of one round if every tier ran on its own
/// controller node. Expected shape: flat decide cost grows linearly-ish
/// with the unit count while the tree's critical path stays bounded by
/// the fan-out (sub-linear in the cluster size), with satisfaction and
/// fairness degrading only gracefully — the price of the root tier seeing
/// shards, not sockets.
///
/// Units here follow a synthetic two-phase demand model (deterministic per
/// seed), not the workload simulator: at 100k units the cluster sim would
/// dominate the runtime and the subject is the controller, not the fleet.
///
/// Knobs:
///   DPS_SCALE_MAX     largest unit count        [100000; CI smoke: 1000]
///   DPS_SEED          demand-model base seed    [42]
///   DPS_JOBS          sweep worker threads (timings are measured inside
///                     each task; decisions are identical at any value)
///   DPS_BENCH_JSON    tracked-baseline output   [BENCH_scale.json]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/dps_manager.hpp"
#include "ctrl/tree.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace dps;

/// Decision rounds per fleet size, and units per leaf shard.
constexpr int kRounds = 60;
constexpr int kShardSize = 32;

double u01(std::uint64_t x) {
  return static_cast<double>(splitmix64(x) >> 11) * 0x1.0p-53;
}

/// Two-phase demand per unit: a high plateau above the fair share and a
/// low one below it, with per-unit period and phase — the overprovisioned
/// mix DPS feeds on (half the fleet idles while the other half wants more
/// than 110 W).
struct DemandModel {
  std::vector<Watts> high, low;
  std::vector<int> period, offset;

  DemandModel(int units, std::uint64_t seed) {
    high.resize(units);
    low.resize(units);
    period.resize(units);
    offset.resize(units);
    for (int u = 0; u < units; ++u) {
      const std::uint64_t k = seed * 1000003ULL + static_cast<std::uint64_t>(u);
      high[u] = 110.0 + 50.0 * u01(k);
      low[u] = 45.0 + 35.0 * u01(k + 1);
      period[u] = 20 + static_cast<int>(40.0 * u01(k + 2));
      offset[u] = static_cast<int>(u01(k + 3) * period[u]);
    }
  }

  Watts demand(int u, int round) const {
    const int phase = (round + offset[u]) % period[u];
    return phase * 2 < period[u] ? high[u] : low[u];
  }
};

struct RunResult {
  double decide_us_per_round = 0.0;  // flat: manager; tree: critical path
  double total_us_per_round = 0.0;   // tree only: all tiers summed
  double satisfaction = 0.0;         // sum min(demand, cap) / sum demand
  double fairness = 0.0;             // 1 - mean pairwise |sat_i - sat_j|
  int levels = 1;
  int shards = 1;
};

/// Mean pairwise absolute difference in O(n log n) via the sorted-prefix
/// identity sum_{i<j}(s_j - s_i) = sum_i s_i * (2i - n + 1).
double mean_pairwise_abs_diff(std::vector<double> values) {
  const std::size_t n = values.size();
  if (n < 2) return 0.0;
  std::sort(values.begin(), values.end());
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += values[i] * (2.0 * static_cast<double>(i) -
                        static_cast<double>(n) + 1.0);
  }
  return sum / (0.5 * static_cast<double>(n) * static_cast<double>(n - 1));
}

RunResult run_controller(PowerManager& manager, TreeController* tree,
                         int units, std::uint64_t seed) {
  const DemandModel model(units, seed);
  ManagerContext ctx;
  ctx.num_units = units;
  ctx.total_budget = 110.0 * units;
  ctx.tdp = 165.0;
  ctx.min_cap = 40.0;
  manager.reset(ctx);

  std::vector<Watts> caps(static_cast<std::size_t>(units),
                          ctx.constant_cap());
  std::vector<Watts> power(static_cast<std::size_t>(units), 0.0);
  std::vector<double> energy(static_cast<std::size_t>(units), 0.0);
  std::vector<double> demand_energy(static_cast<std::size_t>(units), 0.0);

  std::uint64_t decide_ns = 0, total_ns = 0;
  for (int r = 0; r < kRounds; ++r) {
    for (int u = 0; u < units; ++u) {
      const Watts d = model.demand(u, r);
      const Watts p = std::min(d, caps[static_cast<std::size_t>(u)]);
      power[static_cast<std::size_t>(u)] = p;
      energy[static_cast<std::size_t>(u)] += p;
      demand_energy[static_cast<std::size_t>(u)] += d;
    }
    if (tree != nullptr) {
      manager.decide(power, caps);
      decide_ns += tree->last_critical_path_ns();
      total_ns += tree->last_total_ns();
    } else {
      const auto start = std::chrono::steady_clock::now();
      manager.decide(power, caps);
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
      decide_ns += static_cast<std::uint64_t>(ns);
      total_ns += static_cast<std::uint64_t>(ns);
    }
  }

  RunResult result;
  result.decide_us_per_round =
      1e-3 * static_cast<double>(decide_ns) / kRounds;
  result.total_us_per_round = 1e-3 * static_cast<double>(total_ns) / kRounds;
  double capped = 0.0, wanted = 0.0;
  std::vector<double> sats(static_cast<std::size_t>(units));
  for (int u = 0; u < units; ++u) {
    capped += energy[static_cast<std::size_t>(u)];
    wanted += demand_energy[static_cast<std::size_t>(u)];
    sats[static_cast<std::size_t>(u)] =
        demand_energy[static_cast<std::size_t>(u)] > 0.0
            ? energy[static_cast<std::size_t>(u)] /
                  demand_energy[static_cast<std::size_t>(u)]
            : 1.0;
  }
  result.satisfaction = wanted > 0.0 ? capped / wanted : 1.0;
  result.fairness = 1.0 - mean_pairwise_abs_diff(std::move(sats));
  if (tree != nullptr) {
    result.levels = tree->levels();
    result.shards = tree->num_shards();
  }
  return result;
}

struct SizeRow {
  int units = 0;
  RunResult flat, tree;
};

}  // namespace

int main() {
  using namespace dps;
  const int max_units =
      static_cast<int>(bench::int_knob("DPS_SCALE_MAX", 100000, 1));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(bench::int_knob("DPS_SEED", 42, 0, LONG_MAX));
  const std::string json_path =
      env_string("DPS_BENCH_JSON", "BENCH_scale.json");

  std::vector<int> sizes;
  for (int n = 10; n <= max_units; n *= 10) sizes.push_back(n);
  if (sizes.empty()) sizes.push_back(max_units);

  std::printf(
      "Extension: control-plane scale — flat DPS vs src/ctrl/ tree "
      "(shard %d),\n%d rounds of a synthetic two-phase demand fleet, "
      "10..%d units.\n\n",
      kShardSize, kRounds, max_units);

  // One task per size; the timings are taken inside the task, the CSV is
  // written serially from the ordered results.
  const auto rows = sweep_ordered(sizes.size(), [&](std::size_t i) {
    SizeRow row;
    row.units = sizes[i];
    {
      DpsManager flat;
      row.flat = run_controller(flat, nullptr, row.units, seed);
    }
    {
      CtrlConfig ctrl;
      ctrl.shard_size = kShardSize;
      ctrl.max_levels = 3;
      TreeController tree(ctrl);
      row.tree = run_controller(tree, &tree, row.units, seed);
    }
    return row;
  });

  CsvWriter csv(dps::bench::out_dir() + "/ext_scale.csv");
  csv.write_header({"units", "shards", "levels", "flat_decide_us",
                    "tree_critical_us", "tree_total_us", "flat_sat",
                    "tree_sat", "flat_fair", "tree_fair"});
  Table table({"units", "shards", "levels", "flat decide", "tree critical",
               "sat flat/tree", "fair flat/tree"});
  for (const auto& row : rows) {
    char flat_us[32], tree_us[32], sat[48], fair[48];
    std::snprintf(flat_us, sizeof(flat_us), "%.1f us",
                  row.flat.decide_us_per_round);
    std::snprintf(tree_us, sizeof(tree_us), "%.1f us",
                  row.tree.decide_us_per_round);
    std::snprintf(sat, sizeof(sat), "%.3f / %.3f", row.flat.satisfaction,
                  row.tree.satisfaction);
    std::snprintf(fair, sizeof(fair), "%.3f / %.3f", row.flat.fairness,
                  row.tree.fairness);
    table.add_row({std::to_string(row.units),
                   std::to_string(row.tree.shards),
                   std::to_string(row.tree.levels), flat_us, tree_us, sat,
                   fair});
    csv.write_row({std::to_string(row.units),
                   std::to_string(row.tree.shards),
                   std::to_string(row.tree.levels),
                   format_double(row.flat.decide_us_per_round, 2),
                   format_double(row.tree.decide_us_per_round, 2),
                   format_double(row.tree.total_us_per_round, 2),
                   format_double(row.flat.satisfaction, 4),
                   format_double(row.tree.satisfaction, 4),
                   format_double(row.flat.fairness, 4),
                   format_double(row.tree.fairness, 4)});
  }
  table.print();

  {
    std::ofstream json(json_path, std::ios::trunc);
    json << "{\n  \"bench\": \"ext_scale\",\n  \"schema_version\": 1,\n"
         << "  \"rounds\": " << kRounds
         << ",\n  \"shard_size\": " << kShardSize << ",\n  \"sizes\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "    {\"units\": %d, \"shards\": %d, \"levels\": %d, "
          "\"flat_decide_us\": %.2f, \"tree_critical_us\": %.2f, "
          "\"tree_total_us\": %.2f, \"flat_sat\": %.4f, \"tree_sat\": "
          "%.4f, \"flat_fair\": %.4f, \"tree_fair\": %.4f}%s\n",
          rows[i].units, rows[i].tree.shards, rows[i].tree.levels,
          rows[i].flat.decide_us_per_round,
          rows[i].tree.decide_us_per_round, rows[i].tree.total_us_per_round,
          rows[i].flat.satisfaction, rows[i].tree.satisfaction,
          rows[i].flat.fairness, rows[i].tree.fairness,
          i + 1 < rows.size() ? "," : "");
      json << buf;
    }
    json << "  ]\n}\n";
  }
  std::printf("\nwrote %s\n", json_path.c_str());

  // Quality gates. Policy quality must degrade only gracefully at every
  // size; the latency claim is asserted only when the sweep reaches the
  // scale the hierarchy exists for (timing at toy sizes is noise).
  int failures = 0;
  for (const auto& row : rows) {
    if (row.tree.satisfaction < row.flat.satisfaction - 0.05) {
      std::fprintf(stderr,
                   "FAIL: %d units — tree satisfaction %.3f vs flat %.3f "
                   "(allowed -0.05)\n",
                   row.units, row.tree.satisfaction, row.flat.satisfaction);
      ++failures;
    }
    if (row.tree.fairness < row.flat.fairness - 0.10) {
      std::fprintf(stderr,
                   "FAIL: %d units — tree fairness %.3f vs flat %.3f "
                   "(allowed -0.10)\n",
                   row.units, row.tree.fairness, row.flat.fairness);
      ++failures;
    }
  }
  const auto& top = rows.back();
  if (top.units >= 10000) {
    if (top.tree.decide_us_per_round >= top.flat.decide_us_per_round / 2.0) {
      std::fprintf(stderr,
                   "FAIL: %d units — tree critical path %.1f us not below "
                   "half the flat decide %.1f us\n",
                   top.units, top.tree.decide_us_per_round,
                   top.flat.decide_us_per_round);
      ++failures;
    } else {
      std::printf(
          "at %d units the tree critical path is %.1fx below the flat "
          "decide (%.1f vs %.1f us/round)\n",
          top.units,
          top.flat.decide_us_per_round / top.tree.decide_us_per_round,
          top.tree.decide_us_per_round, top.flat.decide_us_per_round);
    }
  }
  if (failures > 0) return 1;
  std::printf(
      "\nExpected: flat decide grows with the unit count while the tree's\n"
      "critical path stays bounded by the fan-out; satisfaction/fairness\n"
      "within the graceful-degradation envelope at every size.\n");
  return 0;
}
