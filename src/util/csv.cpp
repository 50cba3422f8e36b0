#include "util/csv.hpp"

#include <cstdio>
#include <ostream>
#include <string_view>

#include "util/error.hpp"

namespace bsched {

namespace {

/// Escapes a single CSV field per RFC 4180.
std::string csv_escape(std::string_view field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string{field};
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (const char ch : field) {
    if (ch == '"') out.push_back('"');
    out.push_back(ch);
  }
  out.push_back('"');
  return out;
}

void write_fields(std::ostream& out, const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out << ',';
    out << csv_escape(fields[i]);
  }
  out << '\n';
}

}  // namespace

std::string format_double(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, value);
  std::string s{buf};
  if (s.find('.') != std::string::npos) {
    while (s.back() == '0') s.pop_back();
    if (s.back() == '.') s.pop_back();
  }
  return s;
}

csv_writer::csv_writer(const std::string& path,
                       std::vector<std::string> header)
    : out_(path), columns_(header.size()) {
  require(out_.good(), "csv_writer: cannot open " + path);
  require(columns_ > 0, "csv_writer: header must be non-empty");
  write_fields(out_, header);
}

void csv_writer::row(const std::vector<std::string>& fields) {
  require(fields.size() == columns_,
          "csv_writer: field count does not match header");
  write_fields(out_, fields);
  ++rows_;
}

void csv_writer::row(std::initializer_list<double> fields) {
  std::vector<std::string> converted;
  converted.reserve(fields.size());
  for (const double v : fields) converted.push_back(format_double(v));
  row(converted);
}

}  // namespace bsched
