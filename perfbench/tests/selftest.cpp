// Self-tests of the benchmark's own statistics and of its traced copies.
// Build and run: python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "stats.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> v = {7, 1, 3, 9, 5, 2, 8, 4, 10, 6};  // 1..10, shuffled
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 5.5);
  EXPECT_DOUBLE_EQ(percentile(v, 90.0), 9.1);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(median({4.0}), 4.0);
  EXPECT_DOUBLE_EQ(mean(v), 5.5);
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(mean({}), std::invalid_argument);
}

TEST(Percentile, MatchesPythonQuartiles) {
  // statistics.quantiles([1, 2, 4, 8, 16], n=4, method="inclusive")
  // == [2.0, 4.0, 8.0]
  const std::vector<double> v = {16, 1, 8, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 75.0), 8.0);
}

TEST(Percentile, CountsSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 112; ++i) v.push_back(i);
  // 112 grid cells: p90 sits at rank 99.9, so 12 cells lie beyond it.
  EXPECT_EQ(samples_beyond(v, 90.0), 12u);
  EXPECT_EQ(samples_beyond(v, 50.0), 56u);
}

TEST(SelfTime, UnionOfOverlappingIntervals) {
  EXPECT_EQ(union_length({{0, 10}, {5, 15}, {20, 30}}, 0, 100), 25);
  EXPECT_EQ(union_length({{0, 10}, {2, 3}}, 0, 100), 10);
  // Clipped to the parent's interval.
  EXPECT_EQ(union_length({{-5, 5}, {8, 50}}, 0, 10), 7);
  EXPECT_EQ(union_length({}, 0, 10), 0);
}

TEST(SelfTime, SpanMinusUnionOfChildren) {
  // Parent [0, 100]; two parallel leaves overlap on [30, 50]; a nested
  // grandchild must not count against the parent.
  std::vector<Span> spans = {
      {0, 0, 100, 1, kNoSpan, 0, 0},
      {1, 10, 50, 2, 1, 0, 1},
      {1, 30, 80, 3, 1, 0, 2},
      {2, 35, 45, 4, 3, 0, 2},
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 70);  // children cover [10, 80]
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[2], 50 - 10);
  EXPECT_EQ(self[3], 10);
}

const SpanName kParent("selftest.parent");
const SpanName kLeaf("selftest.leaf");
const SpanName kStage("selftest.stage");

void busy(int iterations) {
  volatile double x = 0.0;
  for (int i = 0; i < iterations; ++i) x = x + 1.0;
}

TEST(SelfTime, OnlineFoldMatchesDefinitionWithParallelLeaves) {
  Tracer tracer;
  {
    Tracer::Activation on(tracer);
    for (int round = 0; round < 20; ++round) {
      ScopedSpan parent(kParent);
      busy(2000);
      {
        ScopedSpan stage(kStage);
        busy(3000);
      }
      // Leaves on two other threads, overlapping in time, parented to the
      // open span of the creating thread as the tree's pool leaves are.
      std::vector<std::thread> pool;
      for (int t = 0; t < 2; ++t) {
        pool.emplace_back([] {
          for (int k = 0; k < 3; ++k) {
            ScopedSpan leaf(kLeaf, /*inherit_main=*/true);
            busy(5000);
          }
        });
      }
      for (auto& t : pool) t.join();
      busy(1000);
    }
  }
  const auto spans = tracer.kept_spans();
  const auto self = self_times(spans);
  double parent_self = 0.0;
  double leaf_sum = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == kParent.id()) parent_self += static_cast<double>(self[i]);
    if (spans[i].name == kLeaf.id()) {
      leaf_sum += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      EXPECT_NE(spans[i].parent, kNoSpan);
    }
  }
  const auto stats = tracer.stats();
  const NameStats& parent = stats[static_cast<std::size_t>(kParent.id())];
  EXPECT_EQ(parent.count, 20);
  EXPECT_DOUBLE_EQ(parent.self_ns, parent_self);
  EXPECT_DOUBLE_EQ(parent.remote_sum_ns, leaf_sum);
  EXPECT_LE(parent.remote_union_ns, parent.remote_sum_ns);
  EXPECT_EQ(stats[static_cast<std::size_t>(kLeaf.id())].count, 120);
}

TEST(SelfTime, SpansMustCloseInnermostFirst) {
  Tracer tracer;
  Tracer::Activation on(tracer);
  const SpanId outer = tracer.open(kParent);
  tracer.open(kStage);
  EXPECT_THROW(tracer.close(outer), std::logic_error);
}

/// The traced copy of each workload must reproduce the program's outputs
/// exactly on a small instance.
class TracedCopy : public ::testing::TestWithParam<std::string> {};

TEST_P(TracedCopy, ReproducesUntracedOutputs) {
  for (const std::uint64_t seed : {1u, 7u}) {
    const auto plain = make_workload(GetParam(), seed, Scale::kSmall)->run(0);
    Tracer tracer;
    UnitResult traced;
    {
      Tracer::Activation on(tracer);
      traced = make_workload(GetParam(), seed, Scale::kSmall)->run_traced(0);
    }
    EXPECT_EQ(plain.failed_items, 0);
    EXPECT_EQ(traced.failed_items, 0);
    EXPECT_EQ(traced.counts.steps, plain.counts.steps);
    EXPECT_EQ(traced.item_digests, plain.item_digests);
    EXPECT_EQ(traced.digest, plain.digest);
    EXPECT_GT(plain.sim.runs_completed, 0);
    const auto stats = tracer.stats();
    ASSERT_GT(stats.size(), static_cast<std::size_t>(kUnitSpan.id()));
    EXPECT_EQ(stats[static_cast<std::size_t>(kUnitSpan.id())].count, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, TracedCopy,
                         ::testing::Values("pair_grid", "fleet_tree", "churn", "tcp_loop"));

}  // namespace
}  // namespace perfbench
