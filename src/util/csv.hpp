#pragma once

#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace dps {

/// Minimal CSV writer used by the benches to dump per-timestep traces and
/// per-run results so the paper's figures can be re-plotted externally.
/// Fields containing commas, quotes or newlines are quoted per RFC 4180.
class CsvWriter {
 public:
  /// Opens `path` for writing (truncates). Throws std::runtime_error on
  /// failure.
  explicit CsvWriter(const std::string& path);

  /// Writes one row; each element becomes one field.
  void write_row(const std::vector<std::string>& fields);

  /// Convenience: header row.
  void write_header(const std::vector<std::string>& names) {
    write_row(names);
  }

  /// Flushes buffered output to disk. Throws std::runtime_error naming
  /// the path when any write failed (a full disk, say), so a writer that
  /// ends with flush() never reports a file it did not finish.
  void flush();

  /// Number of rows written so far (including the header).
  std::size_t rows_written() const { return rows_; }

  /// Escapes a single field per RFC 4180. Exposed for testing.
  static std::string escape(std::string_view field);

 private:
  std::string path_;
  std::ofstream out_;
  std::size_t rows_ = 0;
};

/// Flushes `out` and throws std::runtime_error "cannot write <path>" if
/// any write to it failed.
void flush_or_throw(std::ostream& out, const std::string& path);

/// Formats a double with fixed precision, trimming trailing zeros; used for
/// compact CSV and table cells.
std::string format_double(double value, int precision = 4);

}  // namespace dps
