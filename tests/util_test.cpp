#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/ini.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace dps {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(5.0, 6.5);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 6.5);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  const int n = 100000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, UniformIntWithinBound) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_int(7), 7u);
  }
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(19);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(21);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

// The serial half of a sharded read: draw_normals(k) and the pure
// transform must give the k deviates that k normal() calls give, and leave
// the generator in the same state, cached deviate included. Odd and even
// k, from states with and without a pending cached deviate.
TEST(Rng, DrawNormalsMatchesSuccessiveNormalCalls) {
  for (const bool cached : {false, true}) {
    for (const std::size_t k : {0, 1, 2, 3, 7, 8}) {
      SCOPED_TRACE("k " + std::to_string(k) + (cached ? " cached" : ""));
      Rng serial(77), batched(77);
      if (cached) {
        // One call leaves the pair's sine cached.
        EXPECT_EQ(serial.normal(), batched.normal());
      }
      NormalDraws draws;
      batched.draw_normals(k, draws);
      ASSERT_EQ(draws.size(), k);
      // Read out of order, and each deviate with a fresh memo as well as
      // a shared one: a deviate depends on nothing but its index.
      std::vector<double> expected(k);
      for (std::size_t i = 0; i < k; ++i) expected[i] = serial.normal();
      NormalDraws::Memo memo;
      for (std::size_t i = k; i-- > 0;) {
        NormalDraws::Memo fresh;
        EXPECT_EQ(draws.deviate(i, fresh), expected[i]) << "deviate " << i;
        EXPECT_EQ(draws.deviate(i, memo), expected[i]) << "deviate " << i;
      }
      ByteWriter a, b;
      serial.save(a);
      batched.save(b);
      EXPECT_EQ(a.take(), b.take());
      EXPECT_EQ(serial.normal(), batched.normal());
    }
  }
}

TEST(ShuffleIndices, ProducesPermutation) {
  Rng rng(23);
  std::uint32_t idx[10];
  shuffle_indices(rng, idx, 10);
  std::set<std::uint32_t> seen(idx, idx + 10);
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 9u);
}

TEST(ShuffleIndices, ActuallyShuffles) {
  Rng rng(25);
  std::uint32_t idx[32];
  int identity_count = 0;
  for (int trial = 0; trial < 20; ++trial) {
    shuffle_indices(rng, idx, 32);
    bool identity = true;
    for (std::uint32_t i = 0; i < 32; ++i) {
      if (idx[i] != i) {
        identity = false;
        break;
      }
    }
    if (identity) ++identity_count;
  }
  EXPECT_EQ(identity_count, 0);
}

TEST(Csv, EscapePlainFieldUnchanged) {
  EXPECT_EQ(CsvWriter::escape("hello"), "hello");
}

TEST(Csv, EscapeQuotesCommasAndNewlines) {
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, FormatDoubleTrimsZeros) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(0.12345, 3), "0.123");
  EXPECT_EQ(format_double(-0.00001, 2), "0");
}

TEST(Csv, WritesRowsToFile) {
  const std::string path = testing::TempDir() + "/dps_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.write_header({"a", "b"});
    csv.write_row({"1", "x,y"});
    csv.flush();
    EXPECT_EQ(csv.rows_written(), 2u);
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,b");
  EXPECT_EQ(line2, "1,\"x,y\"");
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1.25"});
  t.add_row({"b", "100"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| alpha |  1.25 |"), std::string::npos);
  EXPECT_NE(out.find("|   100 |"), std::string::npos);  // right-aligned
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, PadsShortRowsAndRejectsLongOnes) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_THROW(t.add_row({"1", "2", "3", "4"}), std::invalid_argument);
}

TEST(ByteReader, DoubleCountThatWrapsIsTruncated) {
  // 2^61 + 1 doubles need 8 * 2^61 + 8 bytes, which wraps to 8: exactly
  // what the one double that follows holds.
  ByteWriter out;
  out.u64((1ULL << 61) + 1);
  out.f64(1.0);
  ByteReader in(out.bytes());
  try {
    in.doubles();
    ADD_FAILURE() << "accepted a wrapped count";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "truncated checkpoint payload");
  }
}

TEST(ByteReader, IntCountThatWrapsIsTruncated) {
  ByteWriter out;
  out.u64((1ULL << 61) + 1);
  out.i64(7);
  ByteReader in(out.bytes());
  try {
    in.ints();
    ADD_FAILURE() << "accepted a wrapped count";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "truncated checkpoint payload");
  }
}

TEST(ByteReader, IntOutsideIntRangeIsRefused) {
  // A CRC-valid checkpoint could carry 2^32 + 5, which a bare narrowing
  // would restore as 5.
  for (const std::int64_t v : {(std::int64_t{1} << 32) + 5,
                               std::int64_t{INT32_MIN} - 1}) {
    ByteWriter out;
    out.u64(2);
    out.i64(7);
    out.i64(v);
    ByteReader in(out.bytes());
    try {
      in.ints();
      ADD_FAILURE() << "accepted " << v;
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "checkpoint int out of range");
    }
  }
  ByteWriter out;
  out.ints(std::vector<int>{INT32_MIN, -1, INT32_MAX});
  ByteReader in(out.bytes());
  EXPECT_EQ(in.ints(), (std::vector<int>{INT32_MIN, -1, INT32_MAX}));
}

TEST(IniFile, LoadRefusesADirectory) {
  // A directory opens as a stream and reads as an empty file, which would
  // silently leave every section at its defaults.
  const std::string dir = testing::TempDir();
  try {
    IniFile::load(dir);
    ADD_FAILURE() << "loaded the directory " << dir;
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()), "IniFile: cannot open " + dir);
  }
}

TEST(Env, FallbackWhenUnset) {
  ::unsetenv("DPS_TEST_KNOB");
  EXPECT_EQ(env_int("DPS_TEST_KNOB", 42), 42);
  EXPECT_DOUBLE_EQ(env_double("DPS_TEST_KNOB", 1.5), 1.5);
  EXPECT_EQ(env_string("DPS_TEST_KNOB", "dflt"), "dflt");
}

TEST(Env, ParsesSetValues) {
  ::setenv("DPS_TEST_KNOB", "17", 1);
  EXPECT_EQ(env_int("DPS_TEST_KNOB", 42), 17);
  ::setenv("DPS_TEST_KNOB", "2.25", 1);
  EXPECT_DOUBLE_EQ(env_double("DPS_TEST_KNOB", 1.5), 2.25);
  ::setenv("DPS_TEST_KNOB", "abc", 1);
  EXPECT_THROW(env_int("DPS_TEST_KNOB", 42), std::invalid_argument);
  EXPECT_THROW(env_double("DPS_TEST_KNOB", 1.5), std::invalid_argument);
  EXPECT_EQ(env_string("DPS_TEST_KNOB", "dflt"), "abc");
  ::setenv("DPS_TEST_KNOB", "1x", 1);
  try {
    env_int("DPS_TEST_KNOB", 42);
    ADD_FAILURE() << "a trailing character must not parse";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "DPS_TEST_KNOB must be an integer, got '1x'");
  }
  ::setenv("DPS_TEST_KNOB", "99999999999999999999", 1);  // beyond a long
  EXPECT_THROW(env_int("DPS_TEST_KNOB", 42), std::invalid_argument);
  ::unsetenv("DPS_TEST_KNOB");
}

}  // namespace
}  // namespace dps
