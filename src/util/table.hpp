// Console table formatting for bench output: the benches print the same
// rows the paper's tables report, aligned for reading in a terminal.
#pragma once

#include <string>
#include <vector>

namespace bsched {

/// Accumulates rows and renders an aligned, paper-style text table.
class text_table {
 public:
  explicit text_table(std::vector<std::string> header);

  /// Appends a row; shorter rows are padded with empty cells.
  void row(std::vector<std::string> cells);

  /// Renders the table with a header underline; numeric-looking cells are
  /// right-aligned, text cells left-aligned.
  [[nodiscard]] std::string str() const;

  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace bsched
