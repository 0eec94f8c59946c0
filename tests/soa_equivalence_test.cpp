// Equivalence tests for the structure-of-arrays hot path: every batched
// fast path (PowerInterface batch calls, the RAPL actuation pipeline,
// KalmanBank, the fused peak counter) must be *bit-identical* to the
// scalar code it replaced (Cluster's cached demand pieces are checked in
// stream_equivalence_test.cpp) — the
// experiment CSVs are golden byte-for-byte, so "close enough" floating
// point is a regression here. All comparisons below are exact (EXPECT_EQ
// on doubles), never EXPECT_NEAR.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/dps_config.hpp"
#include "core/dps_manager.hpp"
#include "core/history.hpp"
#include "ctrl/tree.hpp"
#include "experiments/registry.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "faults/faulty_power.hpp"
#include "power/rapl_sim.hpp"
#include "signal/kalman.hpp"
#include "signal/peaks.hpp"
#include "signal/rolling.hpp"
#include "signal/window_bank.hpp"
#include "sim/cluster.hpp"
#include "sim/engine.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "workloads/spec.hpp"

namespace dps {
namespace {

// Hides every batch override of the wrapped interface: only the scalar
// virtuals forward, so batch calls on the wrapper run PowerInterface's
// *default* per-unit loops against the inner scalar methods. Driving one
// of two identical stacks through this wrapper checks the documented
// contract that each batch override is exactly the default loop.
class ScalarOnlyPower final : public PowerInterface {
 public:
  explicit ScalarOnlyPower(PowerInterface& inner) : inner_(inner) {}
  int num_units() const override { return inner_.num_units(); }
  Watts read_power(int unit) override { return inner_.read_power(unit); }
  void set_cap(int unit, Watts cap) override { inner_.set_cap(unit, cap); }
  Watts cap(int unit) const override { return inner_.cap(unit); }
  Watts tdp() const override { return inner_.tdp(); }
  Watts min_cap() const override { return inner_.min_cap(); }

 private:
  PowerInterface& inner_;
};

// Deterministic per-step true power: varied enough to move the energy
// counters and caps around, fully reproducible across the twin stacks.
Watts true_power_of(int unit, int step) {
  return 45.0 + 12.0 * unit + 20.0 * std::sin(0.37 * step + unit);
}

Watts cap_request_of(int unit, int step, Watts min_cap, Watts tdp) {
  const double span = tdp - min_cap;
  return min_cap + span * (0.15 + 0.08 * ((step * 3 + unit * 5) % 11));
}

// The cap actuation pipeline as one vector FIFO per unit: a request tops
// the FIFO up to `delay` entries with its last one (the effective cap when
// empty) and lands at the back; each step pops the front into effect.
struct ActuationReference {
  ActuationReference(int n, int delay, Watts initial)
      : delay(delay),
        pending(static_cast<std::size_t>(n)),
        effective(static_cast<std::size_t>(n), initial) {}

  void request(std::size_t u, Watts clamped) {
    if (delay <= 0) {
      effective[u] = clamped;
      return;
    }
    auto& fifo = pending[u];
    fifo.resize(static_cast<std::size_t>(delay),
                fifo.empty() ? effective[u] : fifo.back());
    fifo.back() = clamped;
  }
  void advance() {
    for (std::size_t u = 0; u < pending.size(); ++u) {
      if (pending[u].empty()) continue;
      effective[u] = pending[u].front();
      pending[u].erase(pending[u].begin());
    }
  }

  int delay;
  std::vector<std::vector<Watts>> pending;
  std::vector<Watts> effective;
};

// Drives two identically-seeded SimulatedRapl instances through the same
// record/set/read sequence — `batched` through its native batch overrides
// (optionally laundered through ScalarOnlyPower to exercise the interface
// defaults instead), `scalar` through per-unit calls — and requires every
// reading and cap to match bitwise. Runs with same-step actuation and with
// two- and three-step actuation pipelines, whose effective caps must also
// follow ActuationReference.
void expect_rapl_paths_identical(bool through_default_loops,
                                 const RaplSimConfig& config) {
  const int n = 6;
  const int steps = 60;
  SimulatedRapl batched(n, config);
  SimulatedRapl scalar(n, config);
  ScalarOnlyPower defaults(batched);
  PowerInterface& batch_face =
      through_default_loops ? static_cast<PowerInterface&>(defaults)
                            : static_cast<PowerInterface&>(batched);
  ActuationReference reference(n, config.actuation_delay_steps, config.tdp);

  std::vector<Watts> truth(n), reads_a(n), reads_b(n), caps(n), eff(n);
  for (int step = 0; step < steps; ++step) {
    for (int u = 0; u < n; ++u) truth[u] = true_power_of(u, step);
    batched.record_batch(truth, 1.0);
    for (int u = 0; u < n; ++u) scalar.record(u, truth[u], 1.0);
    batched.advance_step();
    scalar.advance_step();
    reference.advance();

    batch_face.read_power_batch(reads_a);
    for (int u = 0; u < n; ++u) reads_b[u] = scalar.read_power(u);
    for (int u = 0; u < n; ++u) {
      EXPECT_EQ(reads_a[u], reads_b[u]) << "unit " << u << " step " << step;
    }

    // Every third step skips the request, and odd steps send a second
    // one, so the pipeline also drains and overwrites its back entry.
    if (step % 3 != 2) {
      for (int pass = 0; pass < 1 + step % 2; ++pass) {
        for (int u = 0; u < n; ++u) {
          caps[u] = cap_request_of(u, step + pass, config.min_cap, config.tdp);
          reference.request(static_cast<std::size_t>(u),
                            std::clamp(caps[u], config.min_cap, config.tdp));
        }
        batch_face.set_cap_batch(caps);
        for (int u = 0; u < n; ++u) scalar.set_cap(u, caps[u]);
      }
    }

    batched.effective_caps_batch(eff);
    for (int u = 0; u < n; ++u) {
      EXPECT_EQ(eff[u], scalar.effective_cap(u));
      EXPECT_EQ(eff[u], reference.effective[static_cast<std::size_t>(u)])
          << "unit " << u << " step " << step;
      EXPECT_EQ(batched.cap(u), scalar.cap(u));
    }
  }
}

void expect_rapl_paths_identical(bool through_default_loops) {
  // At depth 3 a request also tops the FIFO up with its last entry.
  for (const int delay : {0, 2, 3}) {
    SCOPED_TRACE("actuation_delay_steps " + std::to_string(delay));
    RaplSimConfig config;  // defaults: 2% noise, seeded RNG
    config.actuation_delay_steps = delay;
    expect_rapl_paths_identical(through_default_loops, config);
  }
}

TEST(BatchEquivalence, SimulatedRaplOverridesMatchPerUnitCalls) {
  expect_rapl_paths_identical(/*through_default_loops=*/false);
}

TEST(BatchEquivalence, InterfaceDefaultLoopsMatchPerUnitCalls) {
  expect_rapl_paths_identical(/*through_default_loops=*/true);
}

TEST(BatchEquivalence, FaultyPowerBatchMatchesPerUnitUnderActiveFaults) {
  const int n = 5;
  const int steps = 40;
  // One of every manager-facing fault kind, overlapping in time so the
  // batch path crosses fault activation/clearing boundaries mid-run.
  const FaultPlan plan({FaultEvent{5.0, 12.0, 1, FaultKind::kUnitCrash, 1.0},
                        FaultEvent{8.0, 10.0, 2, FaultKind::kSensorDropout, 1.0},
                        FaultEvent{3.0, 25.0, 3, FaultKind::kSensorGarbage, 1.0},
                        FaultEvent{6.0, 14.0, 0, FaultKind::kCapStuck, 1.0}},
                       n);
  RaplSimConfig config;
  SimulatedRapl inner_a(n, config);
  SimulatedRapl inner_b(n, config);
  FaultInjector injector_a(plan, n);
  FaultInjector injector_b(plan, n);
  FaultyPowerInterface faulty_a(inner_a, injector_a);
  FaultyPowerInterface faulty_b(inner_b, injector_b);

  std::vector<Watts> truth(n), reads_a(n), reads_b(n), caps(n);
  for (int step = 0; step < steps; ++step) {
    const Seconds now = static_cast<Seconds>(step);
    injector_a.advance(now);
    injector_b.advance(now);
    for (int u = 0; u < n; ++u) truth[u] = true_power_of(u, step);
    inner_a.record_batch(truth, 1.0);
    inner_b.record_batch(truth, 1.0);
    inner_a.advance_step();
    inner_b.advance_step();

    faulty_a.read_power_batch(reads_a);
    for (int u = 0; u < n; ++u) reads_b[u] = faulty_b.read_power(u);
    for (int u = 0; u < n; ++u) {
      EXPECT_EQ(reads_a[u], reads_b[u]) << "unit " << u << " step " << step;
    }

    for (int u = 0; u < n; ++u) {
      caps[u] = cap_request_of(u, step, config.min_cap, config.tdp);
    }
    faulty_a.set_cap_batch(caps);
    for (int u = 0; u < n; ++u) faulty_b.set_cap(u, caps[u]);
    for (int u = 0; u < n; ++u) {
      EXPECT_EQ(inner_a.cap(u), inner_b.cap(u)) << "unit " << u;
    }
    EXPECT_EQ(faulty_a.dropped_cap_writes(), faulty_b.dropped_cap_writes());
  }
  // The cap-stuck window must actually have dropped writes, or the test
  // never exercised the fault branch of the batch path.
  EXPECT_GT(faulty_a.dropped_cap_writes(), 0u);
}

TEST(KalmanBankEquivalence, UpdatesMatchScalarFiltersBitwise) {
  const std::size_t n = 7;
  const double q = 2.0, r = 16.0;
  KalmanBank bank(q, r);
  bank.reset(n);
  std::vector<Kalman1D> filters(n, Kalman1D(q, r));

  Rng rng(1234);
  std::vector<double> measured(n);
  for (int step = 0; step < 300; ++step) {
    for (std::size_t u = 0; u < n; ++u) {
      measured[u] = 80.0 + 15.0 * static_cast<double>(u) +
                    rng.normal(0.0, 4.0);
    }
    bank.update(measured);
    for (std::size_t u = 0; u < n; ++u) filters[u].update(measured[u]);
    for (std::size_t u = 0; u < n; ++u) {
      EXPECT_EQ(bank.estimate(u), filters[u].estimate()) << "u=" << u;
      EXPECT_EQ(bank.variance(u), filters[u].variance()) << "u=" << u;
      EXPECT_EQ(bank.last_gain(u), filters[u].last_gain()) << "u=" << u;
    }
  }
}

TEST(KalmanBankEquivalence, SeedMatchesScalarReset) {
  const std::size_t n = 4;
  KalmanBank bank(0.5, 9.0);
  bank.reset(n);
  const std::vector<double> first = {10.0, 20.0, 30.0, 40.0};
  bank.seed(first, 9.0);
  std::vector<Kalman1D> filters(n, Kalman1D(0.5, 9.0));
  for (std::size_t u = 0; u < n; ++u) filters[u].reset(first[u], 9.0);

  std::vector<double> measured(n);
  for (int step = 0; step < 50; ++step) {
    for (std::size_t u = 0; u < n; ++u) {
      measured[u] = first[u] + 3.0 * std::sin(0.2 * step + u);
    }
    bank.update(measured);
    for (std::size_t u = 0; u < n; ++u) filters[u].update(measured[u]);
    for (std::size_t u = 0; u < n; ++u) {
      EXPECT_EQ(bank.estimate(u), filters[u].estimate());
    }
  }
}

TEST(KalmanBankEquivalence, CheckpointBytesMatchScalarLoopAndRoundTrip) {
  const std::size_t n = 5;
  const double q = 1.5, r = 25.0;
  KalmanBank bank(q, r);
  bank.reset(n);
  std::vector<Kalman1D> filters(n, Kalman1D(q, r));
  Rng rng(99);
  std::vector<double> measured(n);
  for (int step = 0; step < 37; ++step) {
    for (std::size_t u = 0; u < n; ++u) measured[u] = rng.normal(100.0, 10.0);
    bank.update(measured);
    for (std::size_t u = 0; u < n; ++u) filters[u].update(measured[u]);
  }

  // The bank's save must emit exactly the bytes a filter-by-filter loop
  // over vector<Kalman1D> emitted — that is what keeps old checkpoints
  // loadable.
  ByteWriter bank_bytes, scalar_bytes;
  bank.save(bank_bytes);
  for (const auto& filter : filters) filter.save(scalar_bytes);
  EXPECT_EQ(bank_bytes.bytes(), scalar_bytes.bytes());

  // Round trip into a fresh bank restores the exact state: subsequent
  // updates stay bitwise in lockstep with the originals.
  KalmanBank restored(q, r);
  restored.reset(n);
  ByteReader in(bank_bytes.bytes());
  restored.load(in);
  EXPECT_TRUE(in.exhausted());
  for (std::size_t u = 0; u < n; ++u) {
    EXPECT_EQ(restored.estimate(u), bank.estimate(u));
    EXPECT_EQ(restored.variance(u), bank.variance(u));
    EXPECT_EQ(restored.last_gain(u), bank.last_gain(u));
  }
  for (int step = 0; step < 10; ++step) {
    for (std::size_t u = 0; u < n; ++u) measured[u] = rng.normal(90.0, 5.0);
    bank.update(measured);
    restored.update(measured);
    for (std::size_t u = 0; u < n; ++u) {
      EXPECT_EQ(restored.estimate(u), bank.estimate(u));
    }
  }
}

TEST(HistorySharedDurations, AllUnitsSeeTheSameWindowAndBoundsAreKept) {
  DpsConfig config;
  EstimatedPowerHistory history(config);
  history.reset(3);
  std::vector<Watts> measured = {50.0, 60.0, 70.0};
  for (int step = 0; step < 5; ++step) {
    history.observe(measured, 1.0 + 0.1 * step);
  }
  const auto base = history.duration_history(0).contents();
  for (int u = 1; u < 3; ++u) {
    const auto other = history.duration_history(u).contents();
    ASSERT_EQ(base.size(), other.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(base[i], other[i]);
    }
  }
  // The former per-unit vector threw on out-of-range units; the shared
  // window must keep that contract.
  EXPECT_THROW(history.duration_history(-1), std::out_of_range);
  EXPECT_THROW(history.duration_history(3), std::out_of_range);
}

TEST(HistorySharedDurations, CheckpointRoundTripPreservesEstimates) {
  DpsConfig config;
  EstimatedPowerHistory history(config);
  history.reset(4);
  Rng rng(7);
  std::vector<Watts> measured(4);
  for (int step = 0; step < 12; ++step) {
    for (int u = 0; u < 4; ++u) measured[u] = rng.normal(100.0, 8.0);
    history.observe(measured, 1.0);
  }

  ByteWriter out;
  history.save(out);
  EstimatedPowerHistory restored(config);
  restored.reset(4);
  ByteReader in(out.bytes());
  restored.load(in);
  EXPECT_TRUE(in.exhausted());

  for (int u = 0; u < 4; ++u) {
    EXPECT_EQ(restored.estimate(u), history.estimate(u));
  }
  // Observations after the restore stay in bitwise lockstep.
  for (int step = 0; step < 6; ++step) {
    for (int u = 0; u < 4; ++u) measured[u] = rng.normal(95.0, 8.0);
    history.observe(measured, 1.0);
    restored.observe(measured, 1.0);
    for (int u = 0; u < 4; ++u) {
      EXPECT_EQ(restored.estimate(u), history.estimate(u));
      EXPECT_EQ(restored.power_history(u).back(),
                history.power_history(u).back());
    }
  }
}

// Reference count: find_prominent_peaks (unchanged slow path) filtered by
// prominence, capped at limit (so limit 0 counts nothing).
// count_prominent_peaks — including its range and two-sided early exits,
// which return 0 without walking the window — must agree on every input.
std::size_t reference_count(std::span<const double> series,
                            double min_prominence, std::size_t limit) {
  std::size_t count = 0;
  for (const auto& peak : find_prominent_peaks(series)) {
    if (peak.prominence > min_prominence) ++count;
  }
  return std::min(count, limit);
}

TEST(PeakCountEquivalence, MatchesReferenceOnRandomAndPlateauedSeries) {
  Rng rng(2026);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t len = 3 + static_cast<std::size_t>(trial % 40);
    std::vector<double> series(len);
    const bool quantize = trial % 3 == 0;  // force exact-equality plateaus
    for (auto& v : series) {
      v = rng.normal(100.0, 25.0);
      if (quantize) v = std::floor(v / 20.0) * 20.0;
    }
    for (const double prominence : {0.0, 5.0, 30.0}) {
      for (const std::size_t limit : {std::size_t{1}, std::size_t{3},
                                      static_cast<std::size_t>(-1)}) {
        EXPECT_EQ(count_prominent_peaks(series, prominence, limit),
                  reference_count(series, prominence, limit))
            << "trial " << trial << " prominence " << prominence;
      }
    }
  }
}

TEST(PeakCountEquivalence, WindowsLongerThanTheMaskFallBackCorrectly) {
  Rng rng(31337);
  std::vector<double> series(90);  // > 64 samples: no two-sided exit
  for (auto& v : series) v = rng.normal(50.0, 10.0);
  EXPECT_EQ(count_prominent_peaks(series, 4.0, static_cast<std::size_t>(-1)),
            reference_count(series, 4.0, static_cast<std::size_t>(-1)));
}

// Compares the kernel with the reference on `series` at every bar and limit
// the early exits treat differently: negative, zero and positive bars, and
// limits that stop the count before, at and after the first peak.
void expect_matches_reference(const std::vector<double>& series,
                              const std::string& label) {
  for (const double prominence : {-1.0, 0.0, 4.0, 20.0, 30.0}) {
    for (const std::size_t limit : {std::size_t{0}, std::size_t{1},
                                    std::size_t{3},
                                    static_cast<std::size_t>(-1)}) {
      EXPECT_EQ(count_prominent_peaks(series, prominence, limit),
                reference_count(series, prominence, limit))
          << label << " prominence " << prominence << " limit " << limit;
    }
  }
}

std::vector<double> noisy(std::size_t n, double level, double spread,
                          Rng& rng) {
  std::vector<double> series(n);
  for (auto& v : series) v = level + rng.uniform(-spread, spread);
  return series;
}

// The exits fire on flat and single-step windows, which the random series
// above almost never are. Each case here sits on one side of an exit's
// boundary; all must still agree with the reference.
TEST(PeakCountEquivalence, EarlyExitEdgesMatchReference) {
  Rng rng(909);
  const std::vector<double> flat = noisy(20, 100.0, 2.0, rng);
  // A flat window holds no peak at the default bar.
  EXPECT_EQ(count_prominent_peaks(flat, 20.0, 3), 0u);
  expect_matches_reference(flat, "flat");

  std::vector<double> step_up = noisy(20, 60.0, 2.0, rng);
  for (std::size_t i = 10; i < step_up.size(); ++i) step_up[i] += 90.0;
  std::vector<double> step_down(step_up.rbegin(), step_up.rend());
  expect_matches_reference(step_up, "step up");
  expect_matches_reference(step_down, "step down");

  // max - min exactly at the bar, then one ulp of the bar above it. 30 and
  // 20 share an exponent, so nextafter(30) - 10 is exactly nextafter(20).
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> range = {10.0, 20.5, 30.0, 14.25, 10.0};
  EXPECT_EQ(count_prominent_peaks(range, 20.0, 3), 0u);
  expect_matches_reference(range, "range at bar");
  range[2] = std::nextafter(30.0, kInf);
  EXPECT_EQ(count_prominent_peaks(range, 20.0, 3), 1u);
  expect_matches_reference(range, "range one ulp above bar");

  // Range above the bar, but the peak clears its right-side minimum by
  // exactly the bar, so only the two-sided exit decides; then one ulp more.
  std::vector<double> two_sided = {5.0, 12.0, 30.0, 10.0, 15.0};
  EXPECT_EQ(count_prominent_peaks(two_sided, 20.0, 3), 0u);
  expect_matches_reference(two_sided, "two-sided at bar");
  two_sided[2] = std::nextafter(30.0, kInf);
  EXPECT_EQ(count_prominent_peaks(two_sided, 20.0, 3), 1u);
  expect_matches_reference(two_sided, "two-sided one ulp above bar");
  // The same with the left side at the bar.
  std::vector<double> left_sided = {15.0, 10.0, 30.0, 12.0, 5.0};
  EXPECT_EQ(count_prominent_peaks(left_sided, 20.0, 3), 0u);
  left_sided[2] = std::nextafter(30.0, kInf);
  EXPECT_EQ(count_prominent_peaks(left_sided, 20.0, 3), 1u);
  expect_matches_reference(left_sided, "left side one ulp above bar");

  // Non-finite samples at the front, middle and back of a flat and of a
  // peaked window.
  std::vector<double> square(20);
  for (std::size_t i = 0; i < square.size(); ++i) {
    square[i] = (i % 4 < 2 ? 150.0 : 60.0) + rng.uniform(-2.0, 2.0);
  }
  for (const double special :
       {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    for (const auto& base : {flat, square}) {
      for (const std::size_t at : {std::size_t{0}, std::size_t{10},
                                   std::size_t{19}}) {
        std::vector<double> series = base;
        series[at] = special;
        expect_matches_reference(series, "special " +
                                             std::to_string(special) +
                                             " at " + std::to_string(at));
      }
    }
  }

  // Shortest window, and the lengths either side of the two-sided exit's
  // 64-sample limit.
  for (const std::size_t n : {std::size_t{3}, std::size_t{64},
                              std::size_t{65}}) {
    expect_matches_reference(noisy(n, 100.0, 2.0, rng),
                             "flat n=" + std::to_string(n));
    std::vector<double> peaked = noisy(n, 100.0, 2.0, rng);
    for (std::size_t i = 1; i < n; i += 4) peaked[i] += 40.0;
    expect_matches_reference(peaked, "peaked n=" + std::to_string(n));
  }
  expect_matches_reference({100.0, 130.0, 100.0}, "n=3 peak");
}

// Pushes the same rows into a WindowBank and into one RollingWindow per
// unit. Every accessor, the window means and the checkpoint bytes must
// agree while the windows fill, once they are full and after the ring
// wraps, and a saved bank must load back to the same bytes.
TEST(WindowBankEquivalence, MatchesPerUnitRollingWindows) {
  constexpr std::size_t kUnits = 5;
  for (const std::size_t capacity :
       {std::size_t{1}, std::size_t{3}, std::size_t{20}}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    WindowBank bank(capacity);
    bank.reset(kUnits);
    std::vector<RollingWindow> windows(kUnits, RollingWindow(capacity));
    Rng rng(capacity);
    std::vector<double> row(kUnits);
    std::vector<double> means(kUnits);
    std::vector<double> copy(capacity);
    for (std::size_t step = 0; step < 2 * capacity + 3; ++step) {
      for (auto& v : row) v = rng.normal(100.0, 30.0);
      bank.push(row);
      for (std::size_t u = 0; u < kUnits; ++u) windows[u].push(row[u]);
      ASSERT_EQ(bank.size(), windows[0].size());
      EXPECT_EQ(bank.full(), windows[0].full());
      bank.means(means);
      for (std::size_t u = 0; u < kUnits; ++u) {
        EXPECT_EQ(means[u], windows[u].mean());
        bank.copy_window(u, copy);
        for (std::size_t i = 0; i < bank.size(); ++i) {
          EXPECT_EQ(copy[i], windows[u].at(i));
          EXPECT_EQ(bank.at_back(u, i), windows[u].at_back(i));
        }
      }
      ByteWriter bank_bytes;
      ByteWriter window_bytes;
      bank.save(bank_bytes);
      for (const auto& window : windows) window.save(window_bytes);
      EXPECT_EQ(bank_bytes.bytes(), window_bytes.bytes());

      WindowBank restored(capacity);
      restored.reset(kUnits);
      ByteReader in(bank_bytes.bytes());
      restored.load(in);
      EXPECT_TRUE(in.exhausted());
      ByteWriter again;
      restored.save(again);
      EXPECT_EQ(again.bytes(), bank_bytes.bytes());
    }
  }
}

TEST(WindowBankEquivalence, RefusesWhatOneSharedHeadCannotHold) {
  EXPECT_THROW(WindowBank(0), std::invalid_argument);
  WindowBank bank(4);
  bank.reset(3);
  EXPECT_THROW(bank.push(std::vector<double>(2, 1.0)), std::invalid_argument);
  bank.push(std::vector<double>{1.0, 2.0, 3.0});

  const auto saved = [](const std::vector<RollingWindow>& windows) {
    ByteWriter out;
    for (const auto& window : windows) window.save(out);
    return out.take();
  };
  // Windows of different lengths, then windows longer than the capacity.
  std::vector<RollingWindow> ragged(3, RollingWindow(4));
  for (std::size_t u = 0; u < 3; ++u) {
    for (std::size_t i = 0; i <= u % 2; ++i) ragged[u].push(10.0 * u + i);
  }
  std::vector<RollingWindow> wide(3, RollingWindow(5));
  for (auto& window : wide) {
    for (int i = 0; i < 5; ++i) window.push(i);
  }
  for (const auto& bytes : {saved(ragged), saved(wide)}) {
    ByteReader in(bytes);
    EXPECT_THROW(bank.load(in), std::runtime_error);
    // A refused snapshot leaves the bank as it was.
    ASSERT_EQ(bank.size(), 1u);
    EXPECT_EQ(bank.at_back(2, 0), 3.0);
  }
}

// Lanes per block of the bank exits and the undecided lanes a block needs
// before it runs the two-sided exit (peaks.hpp).
constexpr std::size_t kLaneBlock = 32;
constexpr std::size_t kTwoSidedMinUndecided = kLaneBlock / 4;

// The early exits' edge windows from PeakCountEquivalence.
// EarlyExitEdgesMatchReference, each with a label.
std::vector<std::pair<std::string, std::vector<double>>> exit_edge_windows() {
  Rng rng(909);
  std::vector<std::pair<std::string, std::vector<double>>> edges;
  const std::vector<double> flat = noisy(20, 100.0, 2.0, rng);
  edges.emplace_back("flat", flat);
  std::vector<double> step_up = noisy(20, 60.0, 2.0, rng);
  for (std::size_t i = 10; i < step_up.size(); ++i) step_up[i] += 90.0;
  edges.emplace_back("step down",
                     std::vector<double>(step_up.rbegin(), step_up.rend()));
  edges.emplace_back("step up", step_up);

  const double kInf = std::numeric_limits<double>::infinity();
  const double above = std::nextafter(30.0, kInf);
  edges.emplace_back("range at bar",
                     std::vector<double>{10.0, 20.5, 30.0, 14.25, 10.0});
  edges.emplace_back("range one ulp above",
                     std::vector<double>{10.0, 20.5, above, 14.25, 10.0});
  edges.emplace_back("two-sided at bar",
                     std::vector<double>{5.0, 12.0, 30.0, 10.0, 15.0});
  edges.emplace_back("two-sided one ulp above",
                     std::vector<double>{5.0, 12.0, above, 10.0, 15.0});
  edges.emplace_back("left side at bar",
                     std::vector<double>{15.0, 10.0, 30.0, 12.0, 5.0});
  edges.emplace_back("left side one ulp above",
                     std::vector<double>{15.0, 10.0, above, 12.0, 5.0});
  // The same boundaries with the peak at interior indices 1 and 3: the
  // lane loops take interior samples two at a time, then a last one.
  for (const double peak : {30.0, above}) {
    const std::string at = peak == 30.0 ? " at bar" : " one ulp above";
    edges.emplace_back("two-sided" + at + ", index 1",
                       std::vector<double>{5.0, peak, 12.0, 10.0, 15.0});
    edges.emplace_back("left side" + at + ", index 1",
                       std::vector<double>{10.0, peak, 5.0, 12.0, 15.0});
    edges.emplace_back("two-sided" + at + ", index 3",
                       std::vector<double>{5.0, 12.0, 10.0, peak, 10.0});
    edges.emplace_back("left side" + at + ", index 3",
                       std::vector<double>{15.0, 10.0, 12.0, peak, 5.0});
  }

  std::vector<double> square(20);
  for (std::size_t i = 0; i < square.size(); ++i) {
    square[i] = (i % 4 < 2 ? 150.0 : 60.0) + rng.uniform(-2.0, 2.0);
  }
  edges.emplace_back("square", square);
  for (const double special :
       {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    for (const auto& [name, base] :
         {std::pair{"flat", flat}, std::pair{"square", square}}) {
      for (const std::size_t at : {std::size_t{0}, std::size_t{10},
                                   std::size_t{19}}) {
        std::vector<double> series = base;
        series[at] = special;
        edges.emplace_back(std::string(name) + " with " +
                               std::to_string(special) + " at " +
                               std::to_string(at),
                           series);
      }
    }
  }

  for (const std::size_t n : {std::size_t{3}, std::size_t{64},
                              std::size_t{65}}) {
    edges.emplace_back("flat n=" + std::to_string(n),
                       noisy(n, 100.0, 2.0, rng));
    std::vector<double> peaked = noisy(n, 100.0, 2.0, rng);
    for (std::size_t i = 1; i < n; i += 4) peaked[i] += 40.0;
    edges.emplace_back("peaked n=" + std::to_string(n), peaked);
  }
  edges.emplace_back("n=3 peak", std::vector<double>{100.0, 130.0, 100.0});
  return edges;
}

// A bank of `units` windows of one length, lane u holding windows[u].
WindowBank bank_of(const std::vector<std::vector<double>>& windows) {
  const std::size_t n = windows.front().size();
  WindowBank bank(n);
  bank.reset(windows.size());
  std::vector<double> row(windows.size());
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t u = 0; u < windows.size(); ++u) row[u] = windows[u][t];
    bank.push(row);
  }
  return bank;
}

// Whether the range exit alone settles `series` at `bar`.
bool range_exit(std::span<const double> series, double bar) {
  if (std::any_of(series.begin(), series.end(),
                  [](double x) { return std::isnan(x); })) {
    return false;
  }
  return !(*std::max_element(series.begin(), series.end()) -
               *std::min_element(series.begin(), series.end()) >
           bar);
}

// Runs the bank exits over every edge window at every unit count that
// shapes the 32-lane blocks differently (one partial block, one full one,
// a full one plus a single lane, eight full ones), with the edge window in
// every lane or in every fourth lane beside a constant window. The verdict
// of each lane must be exactly what the scalar exits predict for its
// block: the range exit always, the two-sided exit when a quarter of the
// block is still undecided. A flagged lane must count no peak.
TEST(PeakExitLanes, MatchScalarExitsOnEdgeWindowsAtEveryBlockShape) {
  std::size_t both_sides_of_cutoff[2] = {0, 0};
  for (const auto& [label, edge] : exit_edge_windows()) {
    const std::vector<double> filler(edge.size(), 100.0);
    for (const double bar : {-1.0, 0.0, 4.0, 20.0, 30.0}) {
      for (const std::size_t units :
           {std::size_t{1}, std::size_t{3}, std::size_t{20}, std::size_t{32},
            std::size_t{33}, std::size_t{256}}) {
        for (const std::size_t stride : {std::size_t{1}, std::size_t{4}}) {
          std::vector<std::vector<double>> lanes(units);
          for (std::size_t u = 0; u < units; ++u) {
            lanes[u] = u % stride == 0 ? edge : filler;
          }
          std::vector<double> peakless(units, -1.0);
          provably_peakless(bank_of(lanes), bar, peakless);

          for (std::size_t first = 0; first < units; first += kLaneBlock) {
            const std::size_t last = std::min(units, first + kLaneBlock);
            std::size_t undecided = 0;
            for (std::size_t u = first; u < last; ++u) {
              const bool has_nan =
                  std::any_of(lanes[u].begin(), lanes[u].end(),
                              [](double x) { return std::isnan(x); });
              if (!has_nan && !range_exit(lanes[u], bar)) ++undecided;
            }
            const bool two_sided_runs =
                edge.size() <= 64 && undecided >= kTwoSidedMinUndecided;
            if (undecided > 0) ++both_sides_of_cutoff[two_sided_runs];
            for (std::size_t u = first; u < last; ++u) {
              const std::vector<double>& series = lanes[u];
              const bool expected =
                  range_exit(series, bar) ||
                  (two_sided_runs && provably_peakless(series, bar));
              EXPECT_EQ(peakless[u], expected ? 1.0 : 0.0)
                  << label << " bar " << bar << " units " << units
                  << " stride " << stride << " lane " << u;
              if (peakless[u] != 0.0) {
                EXPECT_EQ(count_prominent_peaks(series, bar), 0u)
                    << label << " bar " << bar << " lane " << u;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(both_sides_of_cutoff[0], 0u);
  EXPECT_GT(both_sides_of_cutoff[1], 0u);

  // Windows of fewer than 3 samples hold no peak, whatever they hold.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}}) {
    std::vector<std::vector<double>> lanes(
        5, std::vector<double>(n, std::numeric_limits<double>::quiet_NaN()));
    lanes[1] = std::vector<double>(n, 0.0);
    lanes[1].back() = 500.0;
    std::vector<double> peakless(lanes.size(), 0.0);
    provably_peakless(bank_of(lanes), 20.0, peakless);
    for (const double flag : peakless) EXPECT_EQ(flag, 1.0);
  }
}

// What PeakCountChecker saw, summed over every checker of a tree.
struct PeakTally {
  std::size_t mismatches = 0;  // kernel count differs from the reference
  std::size_t unsound = 0;     // flagged peakless, but counts a peak
  std::size_t inexact = 0;     // flag differs from the scalar exits' verdict
  std::size_t within_bar = 0;  // windows the range exit settles
  std::size_t two_sided = 0;   // windows the lane two-sided exit settles
  std::size_t walked = 0;      // windows left to the scalar count
  std::size_t with_peaks = 0;  // windows counting a peak
};

// Wraps DpsManager and, after every decide, recounts each unit's power
// history with the reference peak finder, and checks the bank exits the
// priority module ran: a lane flagged peakless must count 0 and pass the
// scalar exits, and a lane the range exit settles must be flagged. The
// tallies make a run that never reaches an exit or the walk fail instead
// of passing vacuously.
class PeakCountChecker final : public PowerManager {
 public:
  explicit PeakCountChecker(PeakTally& tally) : tally_(tally) {}

  std::string_view name() const override { return "peak-count-checker"; }
  void reset(const ManagerContext& ctx) override { dps_.reset(ctx); }
  void update_budget(Watts budget) override { dps_.update_budget(budget); }

  void decide(std::span<const Watts> power, std::span<Watts> caps) override {
    dps_.decide(power, caps);
    const DpsConfig& config = dps_.config();
    const double bar = config.peak_prominence;
    const std::size_t limit = config.peak_count_threshold + 1;
    const EstimatedPowerHistory& history = dps_.history();
    std::vector<double> peakless(history.power_windows().units());
    provably_peakless(history.power_windows(), bar, peakless);
    for (int u = 0; u < history.num_units(); ++u) {
      const std::vector<double> window = history.power_history(u);
      const std::size_t count = count_prominent_peaks(window, bar, limit);
      if (count != reference_count(window, bar, limit)) ++tally_.mismatches;
      const bool settled_by_range =
          window.size() >= 3 && range_exit(window, bar);
      if (peakless[u] != 0.0) {
        if (count != 0) ++tally_.unsound;
        if (!provably_peakless(window, bar)) ++tally_.inexact;
        if (window.size() >= 3 && !settled_by_range) ++tally_.two_sided;
      } else {
        if (settled_by_range) ++tally_.inexact;
        ++tally_.walked;
      }
      if (settled_by_range) ++tally_.within_bar;
      if (count > 0) ++tally_.with_peaks;
    }
  }

 private:
  PeakTally& tally_;
  DpsManager dps_;
};

void expect_checked(const PeakTally& tally) {
  EXPECT_EQ(tally.mismatches, 0u);
  EXPECT_EQ(tally.unsound, 0u);
  EXPECT_EQ(tally.inexact, 0u);
  EXPECT_GT(tally.within_bar, 0u);
  EXPECT_GT(tally.two_sided, 0u);
  EXPECT_GT(tally.walked, 0u);
  EXPECT_GT(tally.with_peaks, 0u);
}

TEST(PeakCountEquivalence, MatchesReferenceOnSimulatedDpsTraffic) {
  {
    SCOPED_TRACE("Fig. 6 pair");
    // One Fig. 6 pair: a Spark workload beside an NPB kernel.
    EngineConfig config;
    config.total_budget = 110.0 * 20;
    config.target_completions = 1;
    PeakTally tally;
    PeakCountChecker checker(tally);
    run_pair(workload_by_name("Kmeans"), workload_by_name("CG"), checker,
             config, 11);
    expect_checked(tally);
  }
  {
    SCOPED_TRACE("faulted job stream");
    // A small job stream with crashes, sensor dropout and garbage, stuck
    // caps and budget sags.
    constexpr int kUnits = 12;
    sched::JobScheduleConfig jobs;
    jobs.policy = sched::SchedPolicy::kEasyBackfill;
    jobs.seed = 5;
    jobs.arrival_rate_per_1000s = 12.0;
    jobs.job_count = 8;
    jobs.workload_mix = {"Kmeans", "GMM", "FT", "CG"};
    jobs.min_units = 2;
    jobs.max_units = 6;
    jobs.resolve = [](const std::string& name) {
      return workload_by_name(name);
    };
    FaultPlanConfig faults;
    faults.seed = 17;
    faults.horizon = 20000.0;
    faults.crash_rate = 1.0;
    faults.sensor_dropout_rate = 1.0;
    faults.sensor_garbage_rate = 1.0;
    faults.cap_stuck_rate = 1.0;
    faults.budget_sag_rate = 0.5;
    EngineConfig config;
    config.total_budget = 110.0 * kUnits;
    config.job_schedule = jobs;
    config.fault_plan = std::make_shared<FaultPlan>(
        FaultPlan::generate(faults, kUnits));
    PeakTally tally;
    PeakCountChecker checker(tally);
    const EngineResult result = run_jobs(checker, config, kUnits);
    EXPECT_GT(result.faults_injected, 0);
    expect_checked(tally);
  }
  {
    SCOPED_TRACE("DPS tree");
    // The same pair under a two-level tree: two 10-unit DPS leaves below a
    // DPS root that sees one window per shard.
    CtrlConfig ctrl;
    ctrl.shard_size = 10;
    ctrl.max_levels = 2;
    PeakTally tally;
    const auto checked = [&tally] {
      return std::make_unique<PeakCountChecker>(tally);
    };
    TreeController tree(ctrl, checked, checked);
    EngineConfig config;
    config.total_budget = 110.0 * 20;
    config.target_completions = 1;
    run_pair(workload_by_name("Kmeans"), workload_by_name("CG"), tree,
             config, 11);
    expect_checked(tally);
  }
}

}  // namespace
}  // namespace dps
