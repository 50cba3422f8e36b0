#include "util/wire.hpp"

#include <istream>
#include <iterator>

#include "util/error.hpp"
#include "util/text.hpp"

namespace bsched::wire {

bool splitter::next(std::string_view& token) {
  if (done_) return false;
  const std::size_t at = rest_.find(sep_);
  token = rest_.substr(0, at);
  done_ = at == std::string_view::npos;
  if (!done_) rest_.remove_prefix(at + 1);
  return true;
}

std::optional<key_value> split_kv(std::string_view token) {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos) return std::nullopt;
  return key_value{token.substr(0, eq), token.substr(eq + 1)};
}

std::string read_all(std::istream& in) {
  return std::string{std::istreambuf_iterator<char>{in},
                     std::istreambuf_iterator<char>{}};
}

bool reader::next() {
  if (rest_.empty()) return false;
  const std::size_t eol = std::min(rest_.find('\n'), rest_.size());
  line_ = rest_.substr(0, eol);
  rest_.remove_prefix(std::min(eol + 1, rest_.size()));
  if (line_.ends_with('\r')) line_.remove_suffix(1);
  ++line_no_;
  return true;
}

void reader::expect_magic(std::string_view magic) {
  if (!next()) fail("empty stream (wanted the magic line)");
  if (line_ != magic) {
    fail("bad magic '" + std::string{line_} + "' (this reader speaks '" +
         std::string{magic} + "')");
  }
}

void reader::advance(std::string_view wanted) {
  if (!next()) {
    fail("unexpected end of stream (wanted " + std::string{wanted} + ")");
  }
}

void reader::expect(std::string_view tag_name) {
  advance(tag_name);
  if (tag() != tag_name) {
    fail("expected '" + std::string{tag_name} + "' record, got '" +
         std::string{line_} + "'");
  }
}

std::string_view reader::expect_text(std::string_view key) {
  advance(key);
  const std::optional<key_value> kv = split_kv(line_);
  if (!kv || kv->key != key) {
    fail("expected '" + std::string{key} + "=...', got '" +
         std::string{line_} + "'");
  }
  return kv->value;
}

std::string_view reader::value(std::string_view key) const {
  splitter s = tokens();
  std::string_view token;
  s.next(token);  // the tag
  while (s.next(token)) {
    const std::optional<key_value> kv = split_kv(token);
    if (kv && kv->key == key) return kv->value;
  }
  fail("missing field '" + std::string{key} + "' in '" + std::string{line_} +
       "'");
}

template <class T>
T reader::number(std::string_view token, std::string_view what) const {
  try {
    return parse_number<T>(token, what);
  } catch (const error& e) {
    fail(e.what());
  }
}

template double reader::number<double>(std::string_view,
                                       std::string_view) const;
template std::uint64_t reader::number<std::uint64_t>(std::string_view,
                                                     std::string_view) const;

void reader::fail(std::string_view why) const {
  std::string msg{origin_};
  msg += ": line ";
  msg += std::to_string(line_no_);
  if (!section_.empty()) {
    msg += " (";
    msg += section_;
    msg += ')';
  }
  msg += ": ";
  msg += why;
  throw error(msg);
}

}  // namespace bsched::wire
