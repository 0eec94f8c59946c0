/// Section 6.5 — overhead analysis, as a google-benchmark binary:
///   * pure controller cost: one decide() step of DPS / SLURM / oracle at
///     10 .. 10,000 units (the paper argues the controller scales to tens
///     of thousands of nodes with a sub-millisecond loop);
///   * the Kalman filter and priority-module costs in isolation, the peak
///     count once per path through it (range exit, two-sided exit, walk),
///     and one priority-module update over a bank of such windows;
///   * a full decision round over the real TCP loopback control plane with
///     20 clients, counting the 3-bytes-per-request wire traffic;
///   * the observability tax (src/obs/): the same DPS decide step and a
///     full engine run with the sink disabled (arg 0, must match the
///     uninstrumented numbers — compiled-in hooks are null checks) and
///     enabled (arg 1, budgeted at <= 2 % on the engine run);
///   * the simulated fleet's bind cost: building and stepping a Cluster of
///     1,000 and 10,000 units.

#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/dps_manager.hpp"
#include "core/history.hpp"
#include "core/priority_module.hpp"
#include "experiments/registry.hpp"
#include "managers/oracle.hpp"
#include "managers/slurm_stateless.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/sink.hpp"
#include "signal/kalman.hpp"
#include "signal/peaks.hpp"
#include "sim/cluster.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace dps;

ManagerContext make_ctx(int units) {
  ManagerContext ctx;
  ctx.num_units = units;
  ctx.total_budget = 110.0 * units;
  ctx.tdp = 165.0;
  ctx.min_cap = 40.0;
  ctx.dt = 1.0;
  return ctx;
}

/// Synthetic measured-power feed: a mix of steady, phased, and oscillating
/// units, exercising every priority-module path.
void fill_power(Rng& rng, int step, std::span<const Watts> caps,
                std::span<Watts> power) {
  for (std::size_t u = 0; u < power.size(); ++u) {
    double demand;
    switch (u % 3) {
      case 0:
        demand = 150.0;
        break;
      case 1:
        demand = (step / 40 + static_cast<int>(u)) % 2 == 0 ? 150.0 : 55.0;
        break;
      default:
        demand = (step / 3) % 2 == 0 ? 140.0 : 60.0;
    }
    power[u] = std::min(demand, caps[u]) * (1.0 + rng.normal(0.0, 0.02));
  }
}

template <typename Manager>
void run_decide_benchmark(benchmark::State& state, Manager& manager) {
  const int units = static_cast<int>(state.range(0));
  const auto ctx = make_ctx(units);
  manager.reset(ctx);
  std::vector<Watts> caps(units, ctx.constant_cap());
  std::vector<Watts> power(units, 0.0);
  Rng rng(1);
  int step = 0;
  for (auto _ : state) {
    state.PauseTiming();
    fill_power(rng, step++, caps, power);
    state.ResumeTiming();
    manager.decide(power, caps);
    benchmark::DoNotOptimize(caps.data());
  }
  state.SetItemsProcessed(state.iterations() * units);
}

void BM_DpsDecide(benchmark::State& state) {
  DpsManager manager;
  run_decide_benchmark(state, manager);
}
BENCHMARK(BM_DpsDecide)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SlurmDecide(benchmark::State& state) {
  SlurmStatelessManager manager;
  run_decide_benchmark(state, manager);
}
BENCHMARK(BM_SlurmDecide)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_OracleDecide(benchmark::State& state) {
  const int units = static_cast<int>(state.range(0));
  std::vector<Watts> demands(units, 150.0);
  OracleManager manager([&](std::span<Watts> out) {
    std::copy(demands.begin(), demands.end(), out.begin());
  });
  run_decide_benchmark(state, manager);
}
BENCHMARK(BM_OracleDecide)->Arg(10)->Arg(1000);

/// The observability tax on the pure controller hot path: arg 0 runs DPS
/// decide with the sink disabled (the default state of every deployment),
/// arg 1 with a live sink (counters, timed phases, event ring). Compare
/// against BM_DpsDecide/100 — arg 0 must be indistinguishable from it.
/// Medians as BM_EngineRunObs's, before -> with the phase clock: arg 0
/// 12.8 -> 11.2 us, arg 1 14.5 -> 14.4 us.
void BM_DpsDecideObs(benchmark::State& state) {
  DpsManager manager;
  obs::ObsSink sink;
  if (state.range(0) != 0) sink = obs::ObsSink::create();
  manager.set_obs(sink);
  const auto ctx = make_ctx(100);
  manager.reset(ctx);
  std::vector<Watts> caps(100, ctx.constant_cap());
  std::vector<Watts> power(100, 0.0);
  Rng rng(1);
  int step = 0;
  for (auto _ : state) {
    state.PauseTiming();
    fill_power(rng, step++, caps, power);
    state.ResumeTiming();
    manager.decide(power, caps);
    benchmark::DoNotOptimize(caps.data());
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_DpsDecideObs)->Arg(0)->Arg(1);

/// The observability tax on a whole engine run (every layer instrumented:
/// engine step loop, DPS pipeline, RAPL, nothing faulted). Arg 0 disabled,
/// arg 1 enabled. Medians of five alternating runs pinned to one CPU
/// (Release, 4-vCPU Xeon VM), before the phase clock -> with it: arg 0
/// 2.09 -> 1.76 ms, arg 1 2.40 -> 2.45 ms; single runs spread by +-20 %,
/// and arg 1 costs 15-40 % over arg 0 (docs/observability.md).
void BM_EngineRunObs(benchmark::State& state) {
  const WorkloadSpec a = square_wave(40.0, 40.0, 150.0, 60.0, 8);
  const WorkloadSpec b = flat(600.0, 120.0);
  // The sink is created once, like a deployment does: the benchmark
  // measures recording cost, not the one-time ring/registry setup.
  obs::ObsSink sink;
  if (state.range(0) != 0) sink = obs::ObsSink::create();
  for (auto _ : state) {
    EngineConfig config;
    config.target_completions = 1;
    config.max_time = 4000.0;
    config.obs = sink;
    DpsManager manager;
    const auto result = run_pair(a, b, manager, config);
    benchmark::DoNotOptimize(result.steps);
  }
}
BENCHMARK(BM_EngineRunObs)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Binding cost of the simulated fleet: build a Cluster of 20-socket
/// groups cycling the 19 registry workloads (as perfbench's fleet_tree
/// does at 100k units) and step it 16 times under unbounded caps. Every
/// unit binds a realization at construction, so this tracks what a bind
/// costs and what the first pieces of each run cost to draw.
void BM_ClusterBuild(benchmark::State& state) {
  const auto units = static_cast<int>(state.range(0));
  std::vector<WorkloadSpec> specs;
  for (const auto& name : all_workload_names()) {
    specs.push_back(workload_by_name(name));
  }
  const std::vector<Watts> caps(static_cast<std::size_t>(units), 165.0);
  std::vector<Watts> power(static_cast<std::size_t>(units));
  for (auto _ : state) {
    std::vector<GroupSpec> groups;
    for (int g = 0; g < units / 20; ++g) {
      groups.emplace_back(specs[static_cast<std::size_t>(g) % specs.size()],
                          20, mix_seed(7, static_cast<std::uint64_t>(g)));
    }
    Cluster cluster(std::move(groups));
    for (int step = 0; step < 16; ++step) cluster.step(1.0, caps, power);
    benchmark::DoNotOptimize(power.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * units);
}
BENCHMARK(BM_ClusterBuild)->Arg(1000)->Arg(10000)->Unit(
    benchmark::kMillisecond);

void BM_KalmanUpdate(benchmark::State& state) {
  Kalman1D kf(4.0, 4.0, 100.0, 4.0);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kf.update(100.0 + rng.normal(0.0, 2.0)));
  }
}
BENCHMARK(BM_KalmanUpdate);

/// The priority module's peak count on one 20-sample history at the
/// default 20 W prominence, one fixture per path through the kernel. Most
/// real windows are flat Kalman estimates and leave through the range
/// exit; a phase change leaves through the two-sided exit; only
/// oscillating units reach the peak walk.
enum class PeakFixture { kFlat, kPhaseStep, kSquareWave };

void BM_ProminentPeaks(benchmark::State& state, PeakFixture fixture) {
  Rng rng(3);
  std::vector<double> history(20);
  for (std::size_t i = 0; i < history.size(); ++i) {
    double level = 100.0;
    if (fixture == PeakFixture::kPhaseStep) level = i < 10 ? 60.0 : 150.0;
    if (fixture == PeakFixture::kSquareWave) level = i % 4 < 2 ? 150.0 : 60.0;
    history[i] = level + rng.normal(0.0, 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(count_prominent_peaks(history, 20.0));
  }
}
BENCHMARK_CAPTURE(BM_ProminentPeaks, flat, PeakFixture::kFlat);
BENCHMARK_CAPTURE(BM_ProminentPeaks, phase_step, PeakFixture::kPhaseStep);
BENCHMARK_CAPTURE(BM_ProminentPeaks, square_wave, PeakFixture::kSquareWave);

/// One PriorityModule::update over a full 20-sample history bank, its
/// units cycling through the ProminentPeaks fixtures (flat, phase step,
/// square wave). The bank exits settle the flat and phase-step windows
/// lane by lane; the square waves are gathered and walked. Raw readings
/// (no Kalman filter) keep each window exactly its fixture.
void BM_PriorityUpdate(benchmark::State& state) {
  const int units = static_cast<int>(state.range(0));
  DpsConfig config;
  config.use_kalman_filter = false;
  EstimatedPowerHistory history(config);
  history.reset(units);
  Rng rng(3);
  std::vector<Watts> power(static_cast<std::size_t>(units));
  for (std::size_t i = 0; i < config.history_length; ++i) {
    for (int u = 0; u < units; ++u) {
      double level = 100.0;
      if (u % 3 == 1) level = i < 10 ? 60.0 : 150.0;
      if (u % 3 == 2) level = i % 4 < 2 ? 150.0 : 60.0;
      power[static_cast<std::size_t>(u)] = level + rng.normal(0.0, 1.0);
    }
    history.observe(power, 1.0);
  }
  PriorityModule priority(config);
  priority.reset(units);
  const std::vector<Watts> caps(static_cast<std::size_t>(units), 110.0);
  for (auto _ : state) {
    priority.update(history, caps);
    benchmark::DoNotOptimize(priority.priorities());
  }
  state.SetItemsProcessed(state.iterations() * units);
}
BENCHMARK(BM_PriorityUpdate)->Arg(20)->Arg(32)->Arg(256);

/// Full decision rounds over real loopback TCP with 20 clients — the
/// paper's 10-node dual-socket deployment. Reports wire bytes per round
/// (3 bytes per request per direction per unit).
void BM_TcpControlRound(benchmark::State& state) {
  constexpr int kUnits = 20;
  ControlServer server(0, kUnits);
  std::vector<std::thread> clients;
  std::atomic<bool> stop{false};
  clients.reserve(kUnits);
  for (int u = 0; u < kUnits; ++u) {
    clients.emplace_back([&server] {
      Watts cap = 110.0;
      NodeClient client([&cap] { return cap * 0.98; },
                        [&cap](Watts c) { cap = c; });
      client.connect(server.port());
      client.run();
    });
  }
  server.accept_all();

  DpsManager manager;
  const auto ctx = make_ctx(kUnits);
  // run_rounds resets the manager; run one batch of rounds per iteration.
  for (auto _ : state) {
    server.run_rounds(manager, ctx, 1);
  }
  state.SetBytesProcessed(state.iterations() * kUnits * 2 * 3);
  stop = true;
  server.shutdown();
  for (auto& t : clients) t.join();
}
BENCHMARK(BM_TcpControlRound)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
