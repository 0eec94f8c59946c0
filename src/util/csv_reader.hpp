#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dps {

/// Minimal CSV reader, the counterpart of CsvWriter: parses RFC 4180
/// quoting (quoted fields, doubled quotes, embedded commas/newlines) and
/// exposes rows either positionally or by header name. Used by the
/// analysis tooling to read back the telemetry the benches and tools dump.
class CsvReader {
 public:
  /// Parses CSV text. Throws std::runtime_error on unterminated quotes.
  static CsvReader parse(const std::string& text, bool has_header = true);

  /// Reads and parses a file. Throws std::runtime_error if unreadable.
  static CsvReader load(const std::string& path, bool has_header = true);

  std::size_t num_rows() const { return rows_.size(); }
  /// The 1-based line of the text that row `row` starts on.
  std::size_t line(std::size_t row) const { return lines_.at(row); }
  std::size_t num_columns() const { return header_.size(); }
  const std::vector<std::string>& header() const { return header_; }

  /// Cell by row index and column index. Throws std::out_of_range.
  const std::string& cell(std::size_t row, std::size_t column) const;

  /// Cell by column name; nullopt when the column does not exist.
  std::optional<std::string> cell(std::size_t row,
                                  const std::string& column) const;

  /// Numeric convenience accessors (nullopt on missing/unparsable).
  std::optional<double> number(std::size_t row,
                               const std::string& column) const;

  /// All values of one column parsed as doubles; rows that fail to parse
  /// are skipped.
  std::vector<double> column_as_doubles(const std::string& column) const;

  /// Index of a named column, if present.
  std::optional<std::size_t> column_index(const std::string& column) const;

 private:
  std::vector<std::string> header_;
  std::map<std::string, std::size_t> column_lookup_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::size_t> lines_;  // per row
};

}  // namespace dps
