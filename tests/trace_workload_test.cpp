#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "workloads/trace_workload.hpp"

namespace dps {
namespace {

TEST(TraceWorkload, RampsBetweenDistinctSamples) {
  const std::vector<double> samples = {50.0, 100.0, 150.0};
  const auto spec = workload_from_samples(samples, 1.0, "trace");
  EXPECT_DOUBLE_EQ(spec.nominal_duration(), 2.0);
  EXPECT_DOUBLE_EQ(spec.demand_at(0.0), 50.0);
  EXPECT_DOUBLE_EQ(spec.demand_at(0.5), 75.0);
  EXPECT_DOUBLE_EQ(spec.demand_at(1.5), 125.0);
}

TEST(TraceWorkload, MergesEqualRunsIntoHolds) {
  const std::vector<double> samples = {80.0, 80.0, 80.0, 80.0, 120.0};
  const auto spec = workload_from_samples(samples, 2.0, "trace");
  ASSERT_EQ(spec.segments.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.segments[0].duration, 6.0);  // 3 merged intervals
  EXPECT_DOUBLE_EQ(spec.segments[0].start_power, 80.0);
  EXPECT_DOUBLE_EQ(spec.segments[1].end_power, 120.0);
}

TEST(TraceWorkload, NoSyntheticJitter) {
  const std::vector<double> samples = {50.0, 60.0};
  const auto spec = workload_from_samples(samples, 1.0, "trace");
  EXPECT_DOUBLE_EQ(spec.duration_jitter, 0.0);
  EXPECT_DOUBLE_EQ(spec.power_jitter, 0.0);
  EXPECT_DOUBLE_EQ(spec.socket_skew, 0.0);
}

TEST(TraceWorkload, RejectsDegenerateInput) {
  const std::vector<double> one = {50.0};
  EXPECT_THROW(workload_from_samples(one, 1.0, "x"), std::runtime_error);
  const std::vector<double> two = {50.0, 60.0};
  EXPECT_THROW(workload_from_samples(two, 0.0, "x"), std::runtime_error);
}

TEST(TraceWorkload, SamplesMustBeFiniteAndNonNegative) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf, -40.0}) {
    const std::vector<double> samples = {50.0, bad, 60.0};
    try {
      workload_from_samples(samples, 1.0, "x");
      ADD_FAILURE() << "accepted sample " << bad;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("sample 1"), std::string::npos)
          << error.what();
    }
  }
  const std::vector<double> idle = {0.0, 0.0, 50.0};
  EXPECT_NO_THROW(workload_from_samples(idle, 1.0, "x"));
  const std::vector<double> two = {50.0, 60.0};
  EXPECT_THROW(workload_from_samples(two, nan, "x"), std::runtime_error);
  EXPECT_THROW(workload_from_samples(two, inf, "x"), std::runtime_error);
}

TEST(TraceWorkload, ClassifiesPowerTypes) {
  WorkloadSpec low;
  low.segments = {hold(100, 60.0), hold(5, 120.0)};
  EXPECT_EQ(classify_power_type(low), PowerType::kLow);

  WorkloadSpec mid;
  mid.segments = {hold(60, 150.0), hold(60, 60.0)};
  EXPECT_EQ(classify_power_type(mid), PowerType::kMid);

  WorkloadSpec high;
  high.segments = {hold(90, 150.0), hold(10, 60.0)};
  EXPECT_EQ(classify_power_type(high), PowerType::kHigh);
}

TEST(TraceWorkload, CsvRoundTrip) {
  const std::string path = testing::TempDir() + "/trace_roundtrip.csv";
  {
    std::ofstream out(path);
    out << "time_s,power_w\n";
    out << "0,50\n1,50\n2,140\n3,140\n4,60\n";
  }
  const auto spec = workload_from_trace_csv(path, "recorded");
  EXPECT_EQ(spec.name, "recorded");
  EXPECT_DOUBLE_EQ(spec.nominal_duration(), 4.0);
  EXPECT_DOUBLE_EQ(spec.demand_at(0.5), 50.0);
  EXPECT_NEAR(spec.demand_at(1.5), 95.0, 1e-9);  // ramp 50 -> 140
  EXPECT_DOUBLE_EQ(spec.demand_at(2.5), 140.0);
}

TEST(TraceWorkload, CsvSkipsOnlyAHeaderLine) {
  const std::string path = testing::TempDir() + "/trace_header.csv";
  std::ofstream(path) << "time,power\r\n0,100\r\n1,110\r\n";
  EXPECT_DOUBLE_EQ(workload_from_trace_csv(path, "x").nominal_duration(),
                   1.0);
  // A second non-numeric line is junk, not a header.
  std::ofstream(path) << "# a comment-ish line\ntime,power\n0,100\n1,110\n";
  EXPECT_THROW(workload_from_trace_csv(path, "x"), std::runtime_error);
}

TEST(TraceWorkload, CsvRejectsMalformedRowsNamingTheLine) {
  const std::string path = testing::TempDir() + "/trace_malformed.csv";
  const std::string head = "time_s,power_w\n0,100\n1,120\n";
  const struct {
    std::string text;
    int line;
  } cases[] = {
      {head + "not,a,number\n3,90\n", 4},
      {head + "2\n", 4},
      {head + "2,90,7\n", 4},
      {head + "\n3,90\n", 4},
      {head + "2,nan\n", 4},
      {head + "2,inf\n", 4},
      {head + "2,150junk\n", 4},
      {head + "2,-40\n", 4},
      {head + "2x,90\n", 4},
      {head + "2,90\n3,95\n5,100\n", 6},  // a missed sample
      {head + "2,90\n2.5,95\n", 5},
      {"time_s,power_w\n0,100\n0,120\n", 3},  // no period
      {"time_s,power_w\n1,100\n0,120\n", 3},
      {"0,100\ntime_s,power_w\n", 2},  // the header must come first
  };
  for (const auto& c : cases) {
    std::ofstream(path) << c.text;
    try {
      workload_from_trace_csv(path, "x");
      ADD_FAILURE() << "accepted:\n" << c.text;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(
                    "line " + std::to_string(c.line) + ":"),
                std::string::npos)
          << error.what();
    }
  }
  // Sampling jitter within 1 % of the period passes.
  std::ofstream(path) << head << "2.005,90\n2.999,95\n";
  EXPECT_DOUBLE_EQ(workload_from_trace_csv(path, "x").nominal_duration(),
                   3.0);
}

TEST(TraceWorkload, ParsedCsvRefusesABlankLineAnywhere) {
  // From parsed text, as the fuzz driver feeds it: a blank line is a row
  // of one empty field, refused wherever it falls except as the header.
  EXPECT_DOUBLE_EQ(
      workload_from_trace_csv(CsvReader::parse("\n0,100\n1,110\n", false),
                              "x")
          .nominal_duration(),
      1.0);
  for (const char* text : {"0,100\n1,110\n\n", "0,100\n\n1,110\n"}) {
    try {
      workload_from_trace_csv(CsvReader::parse(text, false, "p.csv"), "x");
      ADD_FAILURE() << "accepted:\n" << text;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("p.csv: line "),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(TraceWorkload, CsvErrors) {
  EXPECT_THROW(workload_from_trace_csv("/no/such/file.csv", "x"),
               std::runtime_error);
  const std::string path = testing::TempDir() + "/trace_short.csv";
  {
    std::ofstream out(path);
    out << "0,100\n";
  }
  EXPECT_THROW(workload_from_trace_csv(path, "x"), std::runtime_error);
}

TEST(TraceWorkload, InferredPeriodFromTimeColumn) {
  const std::string path = testing::TempDir() + "/trace_period.csv";
  {
    std::ofstream out(path);
    out << "0,50\n0.5,70\n1.0,90\n";
  }
  const auto spec = workload_from_trace_csv(path, "x");
  EXPECT_DOUBLE_EQ(spec.nominal_duration(), 1.0);  // 2 ramps x 0.5 s
}

}  // namespace
}  // namespace dps
