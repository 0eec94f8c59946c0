#include <gtest/gtest.h>

#include <fstream>

#include "sim/trace.hpp"
#include "util/csv_reader.hpp"

namespace dps {
namespace {

// --- CsvReader ---

TEST(CsvReader, ParsesHeaderAndRows) {
  const auto csv = CsvReader::parse("a,b,c\n1,2,3\n4,5,6\n");
  EXPECT_EQ(csv.num_rows(), 2u);
  EXPECT_EQ(csv.num_columns(), 3u);
  EXPECT_EQ(csv.cell(0, 0), "1");
  EXPECT_EQ(csv.cell(1, 2), "6");
  EXPECT_EQ(*csv.cell(1, "b"), "5");
}

TEST(CsvReader, RfcQuoting) {
  const auto csv =
      CsvReader::parse("name,text\nx,\"a,b\"\ny,\"say \"\"hi\"\"\"\n");
  EXPECT_EQ(*csv.cell(0, "text"), "a,b");
  EXPECT_EQ(*csv.cell(1, "text"), "say \"hi\"");
}

TEST(CsvReader, QuotedNewlines) {
  const auto csv = CsvReader::parse("a,b\n\"line\nbreak\",2\n");
  EXPECT_EQ(csv.num_rows(), 1u);
  EXPECT_EQ(csv.cell(0, 0), "line\nbreak");
}

TEST(CsvReader, RoundTripsCsvWriterOutput) {
  // What CsvWriter escapes, CsvReader must read back verbatim.
  const auto csv = CsvReader::parse("h1,h2\nplain,\"x,\"\"q\"\"\ny\"\n");
  EXPECT_EQ(*csv.cell(0, "h2"), "x,\"q\"\ny");
}

TEST(CsvReader, NumberParsingAndColumnExtraction) {
  const auto csv = CsvReader::parse("v\n1.5\nnope\n -2 \n");
  const std::size_t v = csv.require_column("v");
  EXPECT_DOUBLE_EQ(csv.real(0, v), 1.5);
  EXPECT_DOUBLE_EQ(csv.real(2, v), -2.0);  // blanks around a number pass
  EXPECT_EQ(csv.integer<int>(2, v), -2);
  try {
    (void)csv.real(1, v);
    ADD_FAILURE() << "accepted 'nope'";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "csv: line 3: bad v 'nope'");
  }
  EXPECT_THROW(csv.integer<int>(0, v), std::runtime_error);  // 1.5
  EXPECT_THROW(csv.require_column("w"), std::runtime_error);
}

TEST(CsvReader, MissingColumnAndRow) {
  const auto csv = CsvReader::parse("a\n1\n");
  EXPECT_FALSE(csv.cell(0, "zzz").has_value());
  EXPECT_FALSE(csv.cell(9, "a").has_value());
  EXPECT_FALSE(csv.column_index("zzz").has_value());
}

TEST(CsvReader, NoHeaderMode) {
  const auto csv = CsvReader::parse("1,2\n3,4\n", /*has_header=*/false);
  EXPECT_EQ(csv.num_rows(), 2u);
  EXPECT_EQ(csv.cell(0, 0), "1");
  EXPECT_EQ(csv.num_columns(), 0u);
}

TEST(CsvReader, ErrorsOnUnterminatedQuoteAndMissingFile) {
  EXPECT_THROW(CsvReader::parse("a\n\"oops\n"), std::runtime_error);
  EXPECT_THROW(CsvReader::load("/no/such.csv"), std::runtime_error);
}

TEST(CsvReader, BlankLinesAreRowsOfOneEmptyField) {
  const auto csv = CsvReader::parse("a,b\n1,2\n\r\n3,4\n");
  ASSERT_EQ(csv.num_rows(), 3u);  // the final newline adds no row
  EXPECT_EQ(csv.num_fields(1), 1u);
  EXPECT_EQ(csv.cell(1, 0), "");
  EXPECT_EQ(csv.line(1), 3u);
  EXPECT_EQ(csv.line(2), 4u);
  try {
    (void)csv.real(1, 1);  // past the row's end: an empty cell
    ADD_FAILURE() << "a blank line parsed as a number";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "csv: line 3: bad b ''");
  }
}

TEST(CsvReader, UnterminatedQuoteNamesItsLine) {
  try {
    CsvReader::parse("a\n1\n\"open\nstill open\n", true, "t.csv");
    ADD_FAILURE() << "accepted an unterminated quote";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "t.csv: line 3: unterminated quoted field");
  }
}

TEST(CsvReader, LoadRefusesADirectory) {
  // It would open, then read as empty text: an empty job trace, say.
  EXPECT_THROW(CsvReader::load(testing::TempDir()), std::runtime_error);
}

TEST(CsvReader, CrlfLineEndings) {
  const auto csv = CsvReader::parse("a,b\r\n1,2\r\n");
  EXPECT_EQ(csv.num_rows(), 1u);
  EXPECT_EQ(*csv.cell(0, "b"), "2");
}

// --- Trace analysis ---

std::string write_trace(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << "time,unit,true_power,measured_power,cap,demand,priority\n";
  // Unit 0: always satisfied (power == demand).
  // Unit 1: demand 150 but capped at 75 half the time.
  // Neither ran under DPS, so neither has a priority.
  for (int t = 1; t <= 10; ++t) {
    out << t << ",0,100,101,110,100,-1\n";
    const bool starved = t > 5;
    out << t << ",1," << (starved ? 75 : 150) << ",75,"
        << (starved ? 75 : 150) << ",150,-1\n";
  }
  return path;
}

TEST(TraceAnalysis, LoadsUnitsAndSatisfaction) {
  const auto trace = Trace::load_csv(write_trace("t1.csv"));
  EXPECT_EQ(trace.num_units(), 2);
  EXPECT_NEAR(trace.satisfaction_of(0), 1.0, 1e-9);
  // Unit 1: mean power (5*150 + 5*75)/10 = 112.5 over demand 150 -> 0.75.
  EXPECT_NEAR(trace.satisfaction_of(1), 0.75, 1e-9);
}

TEST(TraceAnalysis, GroupFairness) {
  const auto trace = Trace::load_csv(write_trace("t2.csv"));
  EXPECT_NEAR(trace.group_fairness({0}, {1}), 1.0 - (1.0 - 0.75), 1e-9);
  EXPECT_THROW(trace.group_fairness({}, {1}), std::invalid_argument);
}

TEST(TraceAnalysis, StarvedShare) {
  const auto trace = Trace::load_csv(write_trace("t3.csv"));
  // Unit 1 is hungry (demand > 110) all 10 samples; cap < 104 in 5.
  EXPECT_NEAR(trace.starved_share(1), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(trace.starved_share(0), 0.0);
}

TEST(TraceAnalysis, MeanCapSum) {
  const auto trace = Trace::load_csv(write_trace("t4.csv"));
  // Sum per sample: 110 + (150 or 75); mean = 110 + 112.5.
  EXPECT_NEAR(trace.mean_cap_sum(), 222.5, 1e-9);
}

TEST(TraceAnalysis, PhasesOfUnit) {
  const auto trace = Trace::load_csv(write_trace("t5.csv"));
  const auto stats = trace.phases_of(1);
  EXPECT_EQ(stats.phase_count, 1);  // the first five 150 W samples
  EXPECT_DOUBLE_EQ(stats.max_peak, 150.0);
}

TEST(TraceAnalysis, RejectsBadInput) {
  const std::string path = testing::TempDir() + "/bad_trace.csv";
  {
    std::ofstream out(path);
    out << "time,unit\n1,0\n";
  }
  EXPECT_THROW(Trace::load_csv(path), std::runtime_error);
  EXPECT_THROW(Trace::load_csv("/no/such/trace.csv"), std::runtime_error);
  // The writer has always emitted the priority column; the reader needs it.
  try {
    Trace::from_csv(CsvReader::parse(
        "time,unit,true_power,measured_power,cap,demand\n1,0,1,1,1,1\n"));
    ADD_FAILURE() << "accepted a trace without priorities";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "csv: missing column priority");
  }
}

TEST(TraceAnalysis, RefusesBadUnitAndPriorityCellsNamingTheLine) {
  const std::string path = testing::TempDir() + "/trace_bad_cells.csv";
  const std::string head =
      "time,unit,true_power,measured_power,cap,demand,priority\n"
      "1,0,100,100,110,100,1\n";
  const struct {
    const char* row;
    const char* message;
  } cases[] = {
      {"1,2.7,100,100,110,100,1", "line 3: bad unit '2.7'"},
      {"1,1e10,100,100,110,100,1", "line 3: bad unit '1e10'"},
      {"1,nan,100,100,110,100,1", "line 3: bad unit 'nan'"},
      {"1,1,100,100,110,100,nan", "line 3: bad priority 'nan'"},
      {"1,1,100,100,110,100,2", "line 3: bad priority '2'"},
      {"1,1,100,inf,110,100,1", "line 3: bad measured_power 'inf'"},
      {"", "line 3: bad "},  // a blank line
      {"1,2,100,100,110,100,1",
       "line 3: unit 2, but units must be numbered 0..1"},
      {"1,-1,100,100,110,100,1",
       "line 3: unit -1, but units must be numbered 0..1"},
  };
  for (const auto& c : cases) {
    std::ofstream(path) << head << c.row << "\n1,0,100,100,110,100,0\n";
    try {
      Trace::load_csv(path);
      ADD_FAILURE() << "accepted " << c.row;
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(c.message), std::string::npos) << what;
      EXPECT_EQ(what.rfind(path + ": ", 0), 0u) << what;
    }
  }
  std::ofstream(path) << head << "1,1,100,100,110,100,-1\n";
  EXPECT_EQ(Trace::load_csv(path).num_units(), 2);
}

TEST(TraceAnalysis, HighPriorityShareFromPriorityColumn) {
  const std::string path = testing::TempDir() + "/trace_priority.csv";
  {
    std::ofstream out(path);
    out << "time,unit,true_power,measured_power,cap,demand,priority\n";
    out << "1,0,100,100,110,100,1\n";
    out << "2,0,100,100,110,100,1\n";
    out << "3,0,100,100,110,100,0\n";
    out << "4,0,100,100,110,100,0\n";
  }
  EXPECT_NEAR(Trace::load_csv(path).high_priority_share(0), 0.5, 1e-9);
  // A unit that never ran under DPS has no share.
  EXPECT_DOUBLE_EQ(
      Trace::load_csv(write_trace("t7.csv")).high_priority_share(0), -1.0);
}

TEST(TraceAnalysis, UnknownUnitThrows) {
  const auto trace = Trace::load_csv(write_trace("t6.csv"));
  EXPECT_THROW(trace.unit(7), std::out_of_range);
}

}  // namespace
}  // namespace dps
