#include "util/table.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "util/error.hpp"

namespace bsched {

namespace {

/// True when `cell` parses fully as a (signed) decimal number, so the table
/// renderer right-aligns it.
bool looks_numeric(const std::string& cell) {
  if (cell.empty()) return false;
  char* end = nullptr;
  std::strtod(cell.c_str(), &end);
  // Allow a trailing '%' so difference columns stay right-aligned.
  if (end != cell.c_str() && *end == '%') ++end;
  return end == cell.c_str() + cell.size();
}

}  // namespace

text_table::text_table(std::vector<std::string> header)
    : header_(std::move(header)) {
  require(!header_.empty(), "text_table: header must be non-empty");
}

void text_table::row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

std::string text_table::str() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    width[c] = header_[c].size();
  }
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      width[c] = std::max(width[c], r[c].size());
    }
  }

  std::ostringstream out;
  const auto emit = [&](const std::vector<std::string>& cells,
                        bool align_numeric) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const std::string& cell = cells[c];
      const bool right = align_numeric && looks_numeric(cell);
      const std::size_t pad = width[c] - cell.size();
      if (c > 0) out << "  ";
      if (right) out << std::string(pad, ' ') << cell;
      else out << cell << std::string(pad, ' ');
    }
    out << '\n';
  };

  emit(header_, false);
  std::size_t total = 0;
  for (const std::size_t w : width) total += w;
  out << std::string(total + 2 * (width.size() - 1), '-') << '\n';
  for (const auto& r : rows_) emit(r, true);
  return out.str();
}

}  // namespace bsched
