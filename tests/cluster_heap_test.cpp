// Heap held by a Cluster per unit. A unit's workload instance is a
// generator (the spec by reference, an RNG, a cursor), so what a unit costs
// on the heap must not depend on how many segments its workload has, and
// binding a new run or job must allocate nothing per unit. This binary
// replaces the global allocation functions with counting ones, so it is a
// test binary of its own.

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "experiments/registry.hpp"
#include "sim/cluster.hpp"
#include "workloads/spec.hpp"

namespace {

std::atomic<std::size_t> g_live_bytes{0};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes += malloc_usable_size(p);
  ++g_allocations;
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes -= malloc_usable_size(p);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace dps {
namespace {

/// Bytes a one-group Cluster of `units` sockets running `spec` holds on
/// the heap once built.
std::size_t held_bytes(const WorkloadSpec& spec, int units) {
  std::vector<GroupSpec> groups{GroupSpec{spec, units, 7}};
  const std::size_t before = g_live_bytes;
  const Cluster cluster(std::move(groups));
  return g_live_bytes - before;
}

/// What each unit beyond the first 1,000 adds: the cluster's per-unit
/// state, with the one spec the group owns cancelled out.
std::size_t bytes_per_unit(WorkloadSpec spec) {
  spec.active_sockets = 0;  // every unit draws a realization
  return (held_bytes(spec, 2000) - held_bytes(spec, 1000)) / 1000;
}

TEST(ClusterHeap, PerUnitHeapDoesNotGrowWithSegmentCount) {
  const WorkloadSpec linear = workload_by_name("Linear");
  const WorkloadSpec sort = workload_by_name("Sort");
  ASSERT_GT(linear.segments.size(), 25 * sort.segments.size());
  const std::size_t linear_bytes = bytes_per_unit(linear);
  const std::size_t sort_bytes = bytes_per_unit(sort);
  EXPECT_EQ(linear_bytes, sort_bytes);
  // The parallel per-unit arrays and the instance: no realized segments,
  // which cost Linear's eager instances about 6.5 KB each.
  EXPECT_LT(linear_bytes, 256u);
}

TEST(ClusterHeap, NewRunAllocatesNothingPerUnit) {
  WorkloadSpec spec;
  spec.name = "short";
  spec.segments = {ramp(2.0, 60.0, 140.0), hold(0.0, 90.0),
                   hold(1.5, 120.0)};
  spec.inter_run_gap = 1.0;
  constexpr int kUnits = 1000;
  Cluster cluster({GroupSpec{spec, kUnits, 11}});
  const std::vector<Watts> caps(kUnits, 100.0);
  std::vector<Watts> power(kUnits);
  const std::size_t before = g_allocations;
  for (int step = 0; step < 40; ++step) cluster.step(1.0, caps, power);
  const std::size_t allocations = g_allocations - before;
  ASSERT_GE(cluster.completions(0).size(), 4u);
  // Only the completion list grows; no run binds anything per unit.
  EXPECT_LT(allocations, 8u);
}

TEST(ClusterHeap, JobBindAllocatesNothingPerUnit) {
  const WorkloadSpec spec = workload_by_name("Linear");
  constexpr int kUnits = 1000;
  Cluster cluster(kUnits);
  std::vector<int> units(kUnits);
  for (int u = 0; u < kUnits; ++u) units[static_cast<std::size_t>(u)] = u;
  const std::size_t before = g_allocations;
  cluster.start_job(0, spec, units, 5);
  // The job's unit list, its copy of the spec and the running-job list.
  EXPECT_LT(g_allocations - before, 8u);
  const std::size_t bound = g_allocations;
  cluster.abort_job(0);
  EXPECT_EQ(g_allocations, bound);
}

}  // namespace
}  // namespace dps
