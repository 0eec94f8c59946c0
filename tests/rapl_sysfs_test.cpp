#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "power/rapl_sysfs.hpp"

namespace dps {
namespace {

namespace fs = std::filesystem;

/// Builds a synthetic powercap tree shaped like a dual-socket Xeon:
/// two package domains plus a dram subdomain that must be ignored.
class FakeSysfs {
 public:
  // ctest runs every case in its own process, possibly in parallel, so
  // the name carries the process id as well as a per-process counter.
  FakeSysfs() {
    root_ = fs::path(testing::TempDir()) /
            ("powercap_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(root_);
    make_domain("intel-rapl:0", "package-0");
    make_domain("intel-rapl:1", "package-1");
    make_domain("intel-rapl:0:0", "dram");  // subdomain: must be skipped
    make_domain("intel-rapl:2", "psys");    // non-package: skipped too
  }

  ~FakeSysfs() { fs::remove_all(root_); }

  std::string root() const { return root_.string(); }

  std::string domain(int i) const {
    return (root_ / ("intel-rapl:" + std::to_string(i))).string();
  }

  void set_energy(int i, std::uint64_t uj) {
    write(domain(i) + "/energy_uj", std::to_string(uj));
  }

  std::uint64_t cap_uw(int i) const {
    return read_sysfs_u64(domain(i) + "/constraint_0_power_limit_uw");
  }

 private:
  void make_domain(const std::string& dir, const std::string& name) {
    const auto path = root_ / dir;
    fs::create_directories(path);
    write((path / "name").string(), name);
    write((path / "energy_uj").string(), "1000000");
    write((path / "max_energy_range_uj").string(), "262143328850");
    write((path / "constraint_0_power_limit_uw").string(), "165000000");
    write((path / "constraint_0_max_power_uw").string(), "165000000");
  }

  static void write(const std::string& path, const std::string& value) {
    std::ofstream out(path);
    out << value;
  }

  fs::path root_;
  static int counter_;
};

int FakeSysfs::counter_ = 0;

/// Deterministic fake clock the tests can advance manually.
struct FakeClock {
  double now = 100.0;
  SysfsRapl::Clock fn() {
    return [this] { return now; };
  }
};

TEST(SysfsRapl, DiscoversOnlyPackageDomains) {
  FakeSysfs sysfs;
  FakeClock clock;
  SysfsRapl rapl(sysfs.root(), clock.fn());
  EXPECT_EQ(rapl.num_units(), 2);
  EXPECT_NE(rapl.domain_path(0).find("intel-rapl:0"), std::string::npos);
  EXPECT_NE(rapl.domain_path(1).find("intel-rapl:1"), std::string::npos);
}

TEST(SysfsRapl, ReadsTdpFromConstraintMax) {
  FakeSysfs sysfs;
  FakeClock clock;
  SysfsRapl rapl(sysfs.root(), clock.fn());
  EXPECT_DOUBLE_EQ(rapl.tdp(), 165.0);
  EXPECT_GT(rapl.min_cap(), 0.0);
  EXPECT_LT(rapl.min_cap(), rapl.tdp());
}

TEST(SysfsRapl, ComputesPowerFromEnergyDelta) {
  FakeSysfs sysfs;
  FakeClock clock;
  SysfsRapl rapl(sysfs.root(), clock.fn());
  // 120 J over 1 s on package 0.
  sysfs.set_energy(0, 1000000 + 120000000);
  clock.now += 1.0;
  EXPECT_NEAR(rapl.read_power(0), 120.0, 1e-9);
  // 55 J over the next 0.5 s.
  sysfs.set_energy(0, 1000000 + 120000000 + 55000000);
  clock.now += 0.5;
  EXPECT_NEAR(rapl.read_power(0), 110.0, 1e-9);
}

TEST(SysfsRapl, HandlesCounterWraparound) {
  FakeSysfs sysfs;
  FakeClock clock;
  // Start the counter near the published range.
  sysfs.set_energy(0, 262143328850ULL - 1000000ULL);
  SysfsRapl rapl(sysfs.root(), clock.fn());
  // Wraps: 1 J before the edge + 99 J past it = 100 J in 1 s.
  sysfs.set_energy(0, 99000000ULL);
  clock.now += 1.0;
  EXPECT_NEAR(rapl.read_power(0), 100.0, 1e-6);
}

TEST(SysfsRapl, RepeatedReadWithoutTimeReturnsLastValue) {
  FakeSysfs sysfs;
  FakeClock clock;
  SysfsRapl rapl(sysfs.root(), clock.fn());
  sysfs.set_energy(0, 1000000 + 90000000);
  clock.now += 1.0;
  const Watts first = rapl.read_power(0);
  EXPECT_NEAR(rapl.read_power(0), first, 1e-12);  // clock did not move
}

TEST(SysfsRapl, SetCapWritesMicrowattsAndClamps) {
  FakeSysfs sysfs;
  FakeClock clock;
  SysfsRapl rapl(sysfs.root(), clock.fn());
  rapl.set_cap(1, 110.0);
  EXPECT_EQ(sysfs.cap_uw(1), 110000000u);
  EXPECT_DOUBLE_EQ(rapl.cap(1), 110.0);
  rapl.set_cap(1, 1000.0);
  EXPECT_EQ(sysfs.cap_uw(1), 165000000u);  // clamped to TDP
  rapl.set_cap(1, 1.0);
  EXPECT_DOUBLE_EQ(rapl.cap(1), rapl.min_cap());
}

TEST(SysfsRapl, PerUnitIndependence) {
  FakeSysfs sysfs;
  FakeClock clock;
  SysfsRapl rapl(sysfs.root(), clock.fn());
  sysfs.set_energy(0, 1000000 + 50000000);
  sysfs.set_energy(1, 1000000 + 150000000);
  clock.now += 1.0;
  EXPECT_NEAR(rapl.read_power(0), 50.0, 1e-9);
  EXPECT_NEAR(rapl.read_power(1), 150.0, 1e-9);
}

TEST(SysfsRapl, ThrowsWithoutAnyPackageDomain) {
  const auto empty = fs::path(testing::TempDir()) / "powercap_empty";
  fs::create_directories(empty);
  EXPECT_THROW(SysfsRapl{empty.string()}, std::runtime_error);
  fs::remove_all(empty);
  EXPECT_THROW(SysfsRapl{"/definitely/not/here"}, std::runtime_error);
}

}  // namespace
}  // namespace dps
