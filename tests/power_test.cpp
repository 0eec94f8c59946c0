#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "power/rapl_sim.hpp"

namespace dps {
namespace {

RaplSimConfig noiseless() {
  RaplSimConfig config;
  config.noise_fraction = 0.0;
  return config;
}

TEST(RaplSim, ReportsAveragePowerOverWindow) {
  SimulatedRapl rapl(1, noiseless());
  rapl.record(0, 100.0, 1.0);
  rapl.record(0, 140.0, 1.0);
  EXPECT_NEAR(rapl.read_power(0), 120.0, 0.1);
}

TEST(RaplSim, WindowResetsAfterRead) {
  SimulatedRapl rapl(1, noiseless());
  rapl.record(0, 100.0, 1.0);
  EXPECT_NEAR(rapl.read_power(0), 100.0, 0.1);
  rapl.record(0, 60.0, 1.0);
  EXPECT_NEAR(rapl.read_power(0), 60.0, 0.1);
}

TEST(RaplSim, ReadWithoutNewWindowRepeatsLastReading) {
  SimulatedRapl rapl(1, noiseless());
  rapl.record(0, 80.0, 1.0);
  const Watts first = rapl.read_power(0);
  EXPECT_NEAR(rapl.read_power(0), first, 1e-9);
}

TEST(RaplSim, EnergyResolutionQuantizesReadings) {
  RaplSimConfig config = noiseless();
  config.energy_unit = 1.0;  // absurdly coarse 1 J units
  SimulatedRapl rapl(1, config);
  rapl.record(0, 0.4, 1.0);  // 0.4 J -> quantizes to 0
  EXPECT_DOUBLE_EQ(rapl.read_power(0), 0.0);
}

TEST(RaplSim, CounterWrapsAt32BitsWithoutCorruptingReadings) {
  RaplSimConfig config = noiseless();
  SimulatedRapl rapl(1, config);
  // Drive the accumulated energy close to the 32-bit wrap point:
  // 2^32 units * (1/16384) J/unit = 262144 J. At 160 W that is ~1638 s.
  const double total_joules = 262144.0;
  const double chunk = 250.0 * 3600.0;  // impossible physically, fine here
  (void)chunk;
  Seconds remaining = total_joules / 160.0 - 2.0;
  while (remaining > 0.0) {
    const Seconds dt = std::min(remaining, 1000.0);
    rapl.record(0, 160.0, dt);
    remaining -= dt;
  }
  (void)rapl.read_power(0);  // sync the reader right below the wrap
  rapl.record(0, 160.0, 5.0);  // crosses the wrap boundary
  EXPECT_NEAR(rapl.read_power(0), 160.0, 0.5);
}

TEST(RaplSim, RawCounterVisibleForTests) {
  RaplSimConfig config = noiseless();
  config.energy_unit = 0.5;
  SimulatedRapl rapl(1, config);
  rapl.record(0, 100.0, 1.0);  // 100 J = 200 units
  EXPECT_EQ(rapl.raw_energy_counter(0), 200u);
}

TEST(RaplSim, CapsClampToHardwareRange) {
  SimulatedRapl rapl(1, noiseless());
  rapl.set_cap(0, 500.0);
  EXPECT_DOUBLE_EQ(rapl.cap(0), 165.0);
  rapl.set_cap(0, 1.0);
  EXPECT_DOUBLE_EQ(rapl.cap(0), 40.0);
}

TEST(RaplSim, DefaultCapIsTdp) {
  SimulatedRapl rapl(2, noiseless());
  EXPECT_DOUBLE_EQ(rapl.cap(1), 165.0);
  EXPECT_DOUBLE_EQ(rapl.effective_cap(1), 165.0);
}

TEST(RaplSim, ImmediateActuationByDefault) {
  SimulatedRapl rapl(1, noiseless());
  rapl.set_cap(0, 110.0);
  EXPECT_DOUBLE_EQ(rapl.effective_cap(0), 110.0);
}

TEST(RaplSim, DelayedActuationTakesEffectAfterConfiguredSteps) {
  RaplSimConfig config = noiseless();
  config.actuation_delay_steps = 2;
  SimulatedRapl rapl(1, config);
  rapl.set_cap(0, 100.0);
  EXPECT_DOUBLE_EQ(rapl.effective_cap(0), 165.0);
  rapl.advance_step();
  EXPECT_DOUBLE_EQ(rapl.effective_cap(0), 165.0);
  rapl.advance_step();
  EXPECT_DOUBLE_EQ(rapl.effective_cap(0), 100.0);
}

TEST(RaplSim, DelayedActuationLatestRequestWins) {
  RaplSimConfig config = noiseless();
  config.actuation_delay_steps = 1;
  SimulatedRapl rapl(1, config);
  rapl.set_cap(0, 100.0);
  rapl.set_cap(0, 120.0);  // same step: overwrite pending request
  rapl.advance_step();
  EXPECT_DOUBLE_EQ(rapl.effective_cap(0), 120.0);
}

TEST(RaplSim, NoiseIsZeroMeanish) {
  RaplSimConfig config;
  config.noise_fraction = 0.02;
  SimulatedRapl rapl(1, config);
  double sum = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    rapl.record(0, 100.0, 1.0);
    sum += rapl.read_power(0);
  }
  EXPECT_NEAR(sum / n, 100.0, 0.5);
}

TEST(RaplSim, NoiseActuallyPerturbsReadings) {
  RaplSimConfig config;
  config.noise_fraction = 0.02;
  SimulatedRapl rapl(1, config);
  int distinct = 0;
  double prev = -1.0;
  for (int i = 0; i < 50; ++i) {
    rapl.record(0, 100.0, 1.0);
    const double p = rapl.read_power(0);
    if (std::abs(p - prev) > 1e-9) ++distinct;
    prev = p;
  }
  EXPECT_GT(distinct, 40);
}

TEST(RaplSim, RejectsInvalidConstruction) {
  EXPECT_THROW(SimulatedRapl(0), std::invalid_argument);
  RaplSimConfig bad;
  bad.min_cap = 200.0;  // above TDP
  EXPECT_THROW(SimulatedRapl(1, bad), std::invalid_argument);
}

TEST(RaplSim, PerUnitStateIsIndependent) {
  SimulatedRapl rapl(2, noiseless());
  rapl.record(0, 50.0, 1.0);
  rapl.record(1, 150.0, 1.0);
  EXPECT_NEAR(rapl.read_power(0), 50.0, 0.1);
  EXPECT_NEAR(rapl.read_power(1), 150.0, 0.1);
  rapl.set_cap(0, 60.0);
  EXPECT_DOUBLE_EQ(rapl.cap(0), 60.0);
  EXPECT_DOUBLE_EQ(rapl.cap(1), 165.0);
}

// The engine's sharded read: drawing every unit's noise serially, then
// reading blocks of units in any order, gives read_power_batch's readings
// and leaves the noise stream where it leaves it. Covers an odd unit
// count (a Box-Muller pair straddles two blocks), a pending cached
// deviate, and the actuation pipeline.
TEST(RaplSim, BlockReadsMatchTheBatchRead) {
  for (const int delay : {0, 2}) {
    SCOPED_TRACE("actuation_delay_steps " + std::to_string(delay));
    RaplSimConfig config;
    config.actuation_delay_steps = delay;
    const int n = 37;
    const auto un = static_cast<std::size_t>(n);
    SimulatedRapl whole(n, config), blocked(n, config);
    // Blocks of 10, 10, 17 units, read last block first.
    const std::size_t cuts[] = {0, 10, 20, un};
    std::vector<Watts> truth(un), caps(un), read_a(un), read_b(un);
    std::vector<Watts> eff_a(un), eff_b(un);
    for (int step = 0; step < 6; ++step) {
      for (std::size_t u = 0; u < un; ++u) {
        truth[u] = 60.0 + 3.0 * static_cast<double>((u * 7 + step) % 29);
        caps[u] = 50.0 + static_cast<double>((u + 3 * step) % 100);
      }
      // A lone read first leaves a deviate cached on odd steps.
      if (step % 2 == 1) {
        whole.record(0, 80.0, 0.5);
        blocked.record(0, 80.0, 0.5);
        ASSERT_EQ(whole.read_power(0), blocked.read_power(0));
      }
      whole.effective_caps_batch(eff_a);
      whole.record_batch(truth, 1.0);
      whole.advance_step();
      whole.read_power_batch(read_a);
      whole.set_cap_batch(caps);

      blocked.draw_block_noise();
      for (std::size_t b = 3; b-- > 0;) {
        blocked.effective_caps_block(cuts[b], cuts[b + 1], eff_b);
        blocked.record_block(cuts[b], cuts[b + 1], truth, 1.0);
        blocked.advance_block(cuts[b], cuts[b + 1]);
        blocked.read_power_block(cuts[b], cuts[b + 1], read_b);
      }
      blocked.set_cap_batch(caps);
      for (std::size_t u = 0; u < un; ++u) {
        ASSERT_EQ(eff_a[u], eff_b[u]) << "step " << step << " unit " << u;
        ASSERT_EQ(read_a[u], read_b[u]) << "step " << step << " unit " << u;
        ASSERT_EQ(whole.raw_energy_counter(static_cast<int>(u)),
                  blocked.raw_energy_counter(static_cast<int>(u)));
      }
    }
  }
}

// A sharded read gives unit u deviate u, which holds only if every window
// is open; a closed one must stop the read rather than shift the rest.
TEST(RaplSim, BlockReadOfAClosedWindowThrows) {
  SimulatedRapl rapl(4);
  std::vector<Watts> truth(4, 100.0), out(4, 0.0);
  rapl.record_batch(truth, 1.0);
  rapl.read_power(2);  // closes unit 2's window
  rapl.draw_block_noise();
  rapl.read_power_block(0, 2, out);
  EXPECT_THROW(rapl.read_power_block(2, 4, out), std::logic_error);
  EXPECT_THROW(rapl.read_power_block(3, 5, out), std::out_of_range);
}

}  // namespace
}  // namespace dps
