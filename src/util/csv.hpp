// Minimal CSV writer used by benches to dump figure data series.
#pragma once

#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

namespace bsched {

/// Streams rows of a CSV file. Fields containing separators, quotes or
/// newlines are quoted per RFC 4180.
class csv_writer {
 public:
  /// Opens `path` for writing and emits the header row.
  /// Throws bsched::error when the file cannot be opened.
  csv_writer(const std::string& path, std::vector<std::string> header);

  /// Appends one row; the field count must match the header.
  void row(const std::vector<std::string>& fields);

  /// Convenience overload converting numeric fields.
  void row(std::initializer_list<double> fields);

  [[nodiscard]] std::size_t rows_written() const noexcept { return rows_; }

 private:
  std::ofstream out_;
  std::size_t columns_;
  std::size_t rows_ = 0;
};

/// Formats a double with `digits` places, trimming trailing zeros.
[[nodiscard]] std::string format_double(double value, int digits = 6);

}  // namespace bsched
