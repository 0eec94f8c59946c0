#include "util/csv.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace dps {

CsvWriter::CsvWriter(const std::string& path) : path_(path), out_(path) {
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << escape(fields[i]);
  }
  out_ << '\n';
  ++rows_;
}

void CsvWriter::flush() { flush_or_throw(out_, path_); }

void flush_or_throw(std::ostream& out, const std::string& path) {
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

std::string CsvWriter::escape(std::string_view field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string quoted = "\"";
  for (char c : field) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

std::string format_double(double value, int precision) {
  if (std::isnan(value)) return "nan";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  if (s == "-0") s = "0";
  return s;
}

}  // namespace dps
