#include "util/csv_reader.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dps {
namespace {

/// Splits CSV text into records of fields, honouring RFC 4180 quoting;
/// `lines` gets the 1-based line each record starts on. Every newline
/// outside quotes ends a record, so a blank line is a record of one empty
/// field; only the text's end adds no empty record.
std::vector<std::vector<std::string>> tokenize(
    const std::string& text, const std::string& source,
    std::vector<std::size_t>& lines) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> record;
  std::string field;
  bool in_quotes = false;
  bool started = false;  // the current record has a character
  std::size_t line = 1;
  std::size_t record_line = 1;
  std::size_t quote_line = 1;

  auto end_field = [&] {
    record.push_back(std::move(field));
    field.clear();
  };
  auto end_record = [&] {
    end_field();
    records.push_back(std::move(record));
    record.clear();
    lines.push_back(record_line);
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\n') ++line;
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        quote_line = line;
        started = true;
        break;
      case ',':
        end_field();
        started = true;
        break;
      case '\r':
        break;
      case '\n':
        end_record();
        started = false;
        record_line = line;
        break;
      default:
        field += c;
        started = true;
    }
  }
  if (in_quotes) {
    throw std::runtime_error(source + ": line " + std::to_string(quote_line) +
                             ": unterminated quoted field");
  }
  if (started) end_record();
  return records;
}

}  // namespace

CsvReader CsvReader::parse(const std::string& text, bool has_header,
                           std::string source) {
  CsvReader reader;
  reader.source_ = std::move(source);
  reader.rows_ = tokenize(text, reader.source_, reader.lines_);
  if (has_header && !reader.rows_.empty()) {
    reader.header_ = std::move(reader.rows_.front());
    reader.rows_.erase(reader.rows_.begin());
    reader.lines_.erase(reader.lines_.begin());
  }
  return reader;
}

CsvReader CsvReader::load(const std::string& path, bool has_header) {
  std::ifstream in(path);
  // A directory opens, then reads as empty text.
  if (!in || std::filesystem::is_directory(path)) {
    throw std::runtime_error("CsvReader: cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str(), has_header, path);
}

const std::string& CsvReader::cell(std::size_t row,
                                   std::size_t column) const {
  return rows_.at(row).at(column);
}

std::optional<std::string> CsvReader::cell(std::size_t row,
                                           const std::string& column) const {
  const auto index = column_index(column);
  if (!index || row >= rows_.size()) return std::nullopt;
  const auto& fields = rows_[row];
  if (*index >= fields.size()) return std::nullopt;
  return fields[*index];
}

std::optional<std::size_t> CsvReader::column_index(
    const std::string& column) const {
  const auto it = std::find(header_.begin(), header_.end(), column);
  if (it == header_.end()) return std::nullopt;
  return static_cast<std::size_t>(it - header_.begin());
}

std::size_t CsvReader::require_column(const std::string& column) const {
  if (const auto index = column_index(column)) return *index;
  throw std::runtime_error(source_ + ": missing column " + column);
}

double CsvReader::real(std::size_t row, std::size_t column,
                       const char* name) const {
  if (const auto value = parse_double(trim(field(row, column)))) {
    return *value;
  }
  bad(row, column, name);
}

void CsvReader::bad(std::size_t row, std::size_t column,
                    const char* name) const {
  const std::string label =
      name != nullptr              ? name
      : column < header_.size() ? header_[column]
                                : "column " + std::to_string(column + 1);
  fail(row, "bad " + label + " '" + std::string(field(row, column)) + "'");
}

void CsvReader::fail(std::size_t row, const std::string& what) const {
  throw std::runtime_error(source_ + ": line " + std::to_string(line(row)) +
                           ": " + what);
}

std::string_view CsvReader::field(std::size_t row, std::size_t column) const {
  const auto& fields = rows_.at(row);
  return column < fields.size() ? std::string_view(fields[column])
                                : std::string_view();
}

}  // namespace dps
