#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/ini.hpp"

namespace dps {

/// The one CSV tokenizer, the counterpart of CsvWriter: parses RFC 4180
/// quoting (quoted fields, doubled quotes, embedded commas/newlines) and
/// exposes rows either positionally or by header name. A blank line is a
/// row too, of one empty field. Each reader of
/// the repo's CSV inputs (job traces, power traces, `analyze`'s trace,
/// obs event logs) keeps its own row rules on top and reads its numbers
/// through the checked accessors, so all of them share one number syntax
/// and one error form: "<source>: line N: ...".
class CsvReader {
 public:
  /// Parses CSV text; `source` names it in error messages. Throws
  /// std::runtime_error on an unterminated quote, naming the line it
  /// opened on.
  static CsvReader parse(const std::string& text, bool has_header = true,
                         std::string source = "csv");

  /// Reads and parses a file, which then names itself in errors. Throws
  /// std::runtime_error if unreadable or a directory.
  static CsvReader load(const std::string& path, bool has_header = true);

  const std::string& source() const { return source_; }
  std::size_t num_rows() const { return rows_.size(); }
  /// The 1-based line of the text that row `row` starts on.
  std::size_t line(std::size_t row) const { return lines_.at(row); }
  /// Number of fields in row `row` (a blank line has one, empty).
  std::size_t num_fields(std::size_t row) const {
    return rows_.at(row).size();
  }
  std::size_t num_columns() const { return header_.size(); }

  /// Cell by row index and column index. Throws std::out_of_range.
  const std::string& cell(std::size_t row, std::size_t column) const;

  /// Cell by column name; nullopt when the column does not exist.
  std::optional<std::string> cell(std::size_t row,
                                  const std::string& column) const;

  /// Index of a named column (the first, if the header repeats it), if
  /// present.
  std::optional<std::size_t> column_index(const std::string& column) const;

  /// Index of a named column; throws std::runtime_error naming the source
  /// when the header lacks it.
  std::size_t require_column(const std::string& column) const;

  /// Checked accessors: the cell, without surrounding blanks (as IniFile
  /// trims a value), as a finite double or as an integer of type `Int`, in
  /// the number syntax of util/ini.hpp. A row too short for the column
  /// reads as an empty cell. Anything else throws bad(row, column, name).
  double real(std::size_t row, std::size_t column,
              const char* name = nullptr) const;
  template <class Int>
  Int integer(std::size_t row, std::size_t column,
              const char* name = nullptr) const {
    if (const auto value = parse_integer<Int>(trim(field(row, column)))) {
      return *value;
    }
    bad(row, column, name);
  }

  /// Throws std::runtime_error "<source>: line N: bad <name> '<cell>'".
  /// `name` defaults to the header's name for the column, or "column C".
  [[noreturn]] void bad(std::size_t row, std::size_t column,
                        const char* name = nullptr) const;

  /// Throws std::runtime_error "<source>: line N: <what>", for a reader's
  /// own row rules.
  [[noreturn]] void fail(std::size_t row, const std::string& what) const;

 private:
  /// The cell, or "" when the row is too short.
  std::string_view field(std::size_t row, std::size_t column) const;

  std::string source_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::size_t> lines_;  // per row
};

}  // namespace dps
