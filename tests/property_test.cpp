/// Property-based tests: invariants that must hold for *any* input, probed
/// with randomized scenarios via parameterized suites.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/dps_manager.hpp"
#include "managers/oracle.hpp"
#include "managers/slurm_stateless.hpp"
#include "metrics/metrics.hpp"
#include "signal/kalman.hpp"
#include "signal/peaks.hpp"
#include "signal/rolling.hpp"
#include "util/rng.hpp"
#include "workloads/instance.hpp"
#include "workloads/spec.hpp"

namespace dps {
namespace {

// --- Peak detection properties ---

class PeakProperties : public testing::TestWithParam<std::uint64_t> {};

std::vector<double> random_series(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<double> series(n);
  double level = rng.uniform(40.0, 160.0);
  for (auto& v : series) {
    if (rng.uniform() < 0.2) level = rng.uniform(20.0, 165.0);
    v = level + rng.normal(0.0, 2.0);
  }
  return series;
}

TEST_P(PeakProperties, CountMonotoneInThreshold) {
  const auto series = random_series(GetParam(), 64);
  std::size_t prev = count_prominent_peaks(series, 0.0);
  for (double threshold = 5.0; threshold <= 150.0; threshold += 5.0) {
    const std::size_t count = count_prominent_peaks(series, threshold);
    EXPECT_LE(count, prev);
    prev = count;
  }
}

TEST_P(PeakProperties, ProminencePositiveAndBoundedByRange) {
  const auto series = random_series(GetParam(), 64);
  const auto [lo, hi] = std::minmax_element(series.begin(), series.end());
  for (const auto& peak : find_prominent_peaks(series)) {
    EXPECT_GT(peak.prominence, 0.0);
    EXPECT_LE(peak.prominence, *hi - *lo + 1e-9);
    EXPECT_GT(peak.index, 0u);
    EXPECT_LT(peak.index, series.size() - 1);
  }
}

TEST_P(PeakProperties, ShiftInvariant) {
  const auto series = random_series(GetParam(), 64);
  std::vector<double> shifted(series);
  for (auto& v : shifted) v += 1000.0;
  EXPECT_EQ(count_prominent_peaks(series, 15.0),
            count_prominent_peaks(shifted, 15.0));
}

INSTANTIATE_TEST_SUITE_P(Random, PeakProperties,
                         testing::Values(11u, 22u, 33u, 44u, 55u));

// --- Rolling window vs naive recomputation ---

class RollingProperties : public testing::TestWithParam<std::uint64_t> {};

TEST_P(RollingProperties, MatchesNaiveStatistics) {
  Rng rng(GetParam());
  const std::size_t capacity = 1 + rng.uniform_int(30);
  RollingWindow window(capacity);
  std::vector<double> shadow;
  for (int i = 0; i < 200; ++i) {
    const double v = rng.uniform(-100.0, 200.0);
    window.push(v);
    shadow.push_back(v);
    if (shadow.size() > capacity) shadow.erase(shadow.begin());
    EXPECT_NEAR(window.mean(), mean_of(shadow), 1e-9);
    EXPECT_NEAR(window.stddev(), stddev_of(shadow), 1e-9);
    EXPECT_DOUBLE_EQ(window.min(),
                     *std::min_element(shadow.begin(), shadow.end()));
    EXPECT_DOUBLE_EQ(window.max(),
                     *std::max_element(shadow.begin(), shadow.end()));
  }
}

INSTANTIATE_TEST_SUITE_P(Random, RollingProperties,
                         testing::Values(3u, 14u, 159u, 2653u));

// --- Kalman filter properties ---

class KalmanProperties : public testing::TestWithParam<std::uint64_t> {};

TEST_P(KalmanProperties, EstimateStaysWithinMeasurementEnvelope) {
  Rng rng(GetParam());
  Kalman1D kf(4.0, 4.0, 100.0, 4.0);
  double lo = 100.0, hi = 100.0;
  for (int i = 0; i < 500; ++i) {
    const double measurement = rng.uniform(20.0, 165.0);
    lo = std::min(lo, measurement);
    hi = std::max(hi, measurement);
    const double estimate = kf.update(measurement);
    // A convex-combination filter can never escape the hull of its initial
    // state and the measurements seen so far.
    EXPECT_GE(estimate, lo - 1e-9);
    EXPECT_LE(estimate, hi + 1e-9);
  }
}

TEST_P(KalmanProperties, VarianceConvergesToFixedPoint) {
  Rng rng(GetParam());
  Kalman1D kf(rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0), 0.0, 1e6);
  for (int i = 0; i < 300; ++i) kf.update(rng.uniform(0.0, 100.0));
  const double p1 = kf.variance();
  kf.update(50.0);
  // The posterior covariance of a time-invariant 1-D system reaches its
  // Riccati fixed point regardless of the measurements.
  EXPECT_NEAR(kf.variance(), p1, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Random, KalmanProperties,
                         testing::Values(5u, 50u, 500u));

// --- Manager safety properties under adversarial power feeds ---

ManagerContext random_ctx(Rng& rng) {
  ManagerContext ctx;
  ctx.num_units = 2 + static_cast<int>(rng.uniform_int(18));
  ctx.tdp = 165.0;
  ctx.min_cap = 40.0;
  // Budget anywhere between everyone-at-min and everyone-at-TDP.
  ctx.total_budget =
      ctx.num_units * rng.uniform(ctx.min_cap, ctx.tdp);
  ctx.dt = 1.0;
  return ctx;
}

class ManagerSafety : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ManagerSafety, DpsRespectsBudgetAndHardwareLimits) {
  Rng rng(GetParam());
  const auto ctx = random_ctx(rng);
  DpsManager manager;
  manager.reset(ctx);
  std::vector<Watts> caps(ctx.num_units, ctx.constant_cap());
  std::vector<Watts> power(ctx.num_units, 0.0);
  for (int step = 0; step < 400; ++step) {
    for (int u = 0; u < ctx.num_units; ++u) {
      // Adversarial feed: arbitrary readings, even ones above the cap
      // (sensor glitches) or negative-ish noise floors.
      power[u] = rng.uniform() < 0.05 ? rng.uniform(0.0, 400.0)
                                      : std::min(caps[u], rng.uniform(15.0, 165.0));
    }
    manager.decide(power, caps);
    const Watts total = std::accumulate(caps.begin(), caps.end(), 0.0);
    ASSERT_LE(total, ctx.total_budget + 1e-6);
    for (const Watts c : caps) {
      ASSERT_GE(c, ctx.min_cap - 1e-9);
      ASSERT_LE(c, ctx.tdp + 1e-9);
    }
  }
}

TEST_P(ManagerSafety, SlurmRespectsBudgetAndHardwareLimits) {
  Rng rng(GetParam() ^ 0x5151ULL);
  const auto ctx = random_ctx(rng);
  SlurmStatelessManager manager;
  manager.reset(ctx);
  std::vector<Watts> caps(ctx.num_units, ctx.constant_cap());
  std::vector<Watts> power(ctx.num_units, 0.0);
  for (int step = 0; step < 400; ++step) {
    for (int u = 0; u < ctx.num_units; ++u) {
      power[u] = std::min(caps[u] * 1.02, rng.uniform(15.0, 165.0));
    }
    manager.decide(power, caps);
    const Watts total = std::accumulate(caps.begin(), caps.end(), 0.0);
    ASSERT_LE(total, ctx.total_budget + 1e-6);
  }
}

TEST_P(ManagerSafety, OracleEqualizesSatisfactionWhenOverCommitted) {
  Rng rng(GetParam() ^ 0x0c1eULL);
  const int units = 2 + static_cast<int>(rng.uniform_int(10));
  std::vector<Watts> demands(units);
  for (auto& d : demands) d = rng.uniform(60.0, 165.0);
  OracleManager oracle(
      [&](std::span<Watts> out) {
        std::copy(demands.begin(), demands.end(), out.begin());
      },
      0.0);
  ManagerContext ctx;
  ctx.num_units = units;
  ctx.tdp = 165.0;
  ctx.min_cap = 40.0;
  ctx.total_budget = 0.6 * std::accumulate(demands.begin(), demands.end(),
                                           0.0);  // always over-committed
  oracle.reset(ctx);
  std::vector<Watts> caps(units, ctx.constant_cap());
  const std::vector<Watts> zero(units, 0.0);
  oracle.decide(zero, caps);
  // All units not pinned at min_cap must have equal cap/demand ratios.
  double ratio = -1.0;
  for (int u = 0; u < units; ++u) {
    if (caps[u] <= ctx.min_cap + 1e-9) continue;
    const double r = caps[u] / demands[u];
    if (ratio < 0.0) ratio = r;
    EXPECT_NEAR(r, ratio, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, ManagerSafety,
                         testing::Values(101u, 202u, 303u, 404u, 505u,
                                         606u));

// --- Workload model properties ---

class WorkloadProperties : public testing::TestWithParam<std::uint64_t> {};

TEST_P(WorkloadProperties, InstanceDemandsStayWithinPhysicalRange) {
  Rng rng(GetParam());
  WorkloadSpec spec;
  spec.name = "random";
  Seconds total = 0.0;
  while (total < 100.0) {
    const Seconds d = rng.uniform(1.0, 40.0);
    spec.segments.push_back(
        ramp(d, rng.uniform(20.0, 160.0), rng.uniform(20.0, 160.0)));
    total += d;
  }
  WorkloadInstance instance(spec, rng.next_u64());
  WorkloadInstance::Piece piece;
  Seconds p = 0.0;
  while (instance.next(&piece)) {
    for (; p < piece.end; p += 0.7) {
      const Watts demand = piece.demand(p);
      EXPECT_GE(demand, 0.0);
      EXPECT_LE(demand, 165.0 * 1.3);  // power jitter can exceed slightly
    }
  }
  EXPECT_GT(p, 100.0 * 0.5);  // the pieces held about 100 s of work
}

TEST_P(WorkloadProperties, FractionAboveIsMonotoneInThreshold) {
  Rng rng(GetParam() ^ 0xf00dULL);
  WorkloadSpec spec;
  for (int i = 0; i < 20; ++i) {
    spec.segments.push_back(ramp(rng.uniform(1.0, 30.0),
                                 rng.uniform(20.0, 160.0),
                                 rng.uniform(20.0, 160.0)));
  }
  double prev = spec.fraction_above(0.0);
  EXPECT_DOUBLE_EQ(prev, 1.0);
  for (Watts threshold = 20.0; threshold <= 170.0; threshold += 10.0) {
    const double fraction = spec.fraction_above(threshold);
    EXPECT_LE(fraction, prev + 1e-12);
    EXPECT_GE(fraction, 0.0);
    prev = fraction;
  }
  EXPECT_DOUBLE_EQ(spec.fraction_above(200.0), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Random, WorkloadProperties,
                         testing::Values(7u, 77u, 777u, 7777u));

// --- Metric properties ---

TEST(MetricProperties, FairnessSymmetricAndMaximalAtEquality) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const double a = rng.uniform(0.0, 1.0);
    const double b = rng.uniform(0.0, 1.0);
    EXPECT_DOUBLE_EQ(fairness(a, b), fairness(b, a));
    EXPECT_LE(fairness(a, b), fairness(a, a));
  }
}

TEST(MetricProperties, HmeanDominatedByWorstLatency) {
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> latencies;
    for (int j = 0; j < 8; ++j) latencies.push_back(rng.uniform(10.0, 1000.0));
    const double h = hmean_latency(latencies);
    EXPECT_GE(h, *std::min_element(latencies.begin(), latencies.end()));
    EXPECT_LE(h, *std::max_element(latencies.begin(), latencies.end()));
  }
}

}  // namespace
}  // namespace dps
