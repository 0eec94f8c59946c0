#include "util/csv_reader.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dps {
namespace {

/// Splits CSV text into records of fields, honouring RFC 4180 quoting;
/// `lines` gets the 1-based line each record starts on.
std::vector<std::vector<std::string>> tokenize(
    const std::string& text, std::vector<std::size_t>& lines) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> record;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;
  std::size_t line = 1;
  std::size_t record_line = 1;

  auto end_field = [&] {
    record.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_record = [&] {
    if (field_started || !field.empty() || !record.empty()) {
      end_field();
      records.push_back(std::move(record));
      record.clear();
      lines.push_back(record_line);
    }
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
        field_started = true;
        break;
      case ',':
        end_field();
        field_started = true;  // the next field exists even if empty
        break;
      case '\r':
        break;
      case '\n':
        end_record();
        record_line = line;
        break;
      default:
        field += c;
        field_started = true;
    }
  }
  if (in_quotes) {
    throw std::runtime_error("CsvReader: unterminated quoted field");
  }
  end_record();
  return records;
}

}  // namespace

CsvReader CsvReader::parse(const std::string& text, bool has_header) {
  CsvReader reader;
  auto records = tokenize(text, reader.lines_);
  if (records.empty()) return reader;
  std::size_t first_row = 0;
  if (has_header) {
    reader.header_ = records.front();
    for (std::size_t c = 0; c < reader.header_.size(); ++c) {
      reader.column_lookup_.emplace(reader.header_[c], c);
    }
    first_row = 1;
    reader.lines_.erase(reader.lines_.begin());
  }
  for (std::size_t r = first_row; r < records.size(); ++r) {
    reader.rows_.push_back(std::move(records[r]));
  }
  return reader;
}

CsvReader CsvReader::load(const std::string& path, bool has_header) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("CsvReader: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str(), has_header);
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

std::optional<double> CsvReader::number(std::size_t row,
                                        const std::string& column) const {
  const auto value = cell(row, column);
  if (!value) return std::nullopt;
  char* end = nullptr;
  const double parsed = std::strtod(value->c_str(), &end);
  if (end == value->c_str() || *end != '\0') return std::nullopt;
  return parsed;
}

std::vector<double> CsvReader::column_as_doubles(
    const std::string& column) const {
  std::vector<double> values;
  values.reserve(rows_.size());
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (const auto value = number(r, column)) values.push_back(*value);
  }
  return values;
}

std::optional<std::size_t> CsvReader::column_index(
    const std::string& column) const {
  const auto it = column_lookup_.find(column);
  if (it == column_lookup_.end()) return std::nullopt;
  return it->second;
}

}  // namespace dps
