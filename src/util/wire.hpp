// The one reader of bsched's text formats — the dist codec's shard/sweep
// sections, telemetry snapshots, the net message header and spec strings.
// Records split on one separator byte, without allocating; "key=value"
// splits at the first '='; numbers go through util/text's strict
// parse_number; a document error reads "<origin>: line N (<section>):
// <why>" (N: the last line read) and is built only on failure. Every view
// handed out points into the caller's text.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bsched::wire {

/// Yields the tokens of `text` separated by `sep`: "a,,b" gives "a", ""
/// and "b"; "" gives one empty token.
class splitter {
 public:
  splitter(std::string_view text, char sep) : rest_(text), sep_(sep) {}

  /// Sets `token` to the next token; false once all were yielded.
  bool next(std::string_view& token);

 private:
  std::string_view rest_;
  char sep_;
  bool done_ = false;
};

struct key_value {
  std::string_view key;
  std::string_view value;
};

/// Splits "key=value" at its first '='; nullopt when there is none.
[[nodiscard]] std::optional<key_value> split_kv(std::string_view token);

/// The rest of `in`, for the stream forms of the decoders.
[[nodiscard]] std::string read_all(std::istream& in);

/// Strict line cursor over a whole document, with the accessors of the
/// "tag key=value ..." record shape. Lines end at '\n'; one trailing '\r'
/// is dropped, so CR-LF text reads like LF text.
class reader {
 public:
  /// `origin` prefixes every error ("dist::codec"). `text` and `origin`
  /// must outlive the reader.
  reader(std::string_view text, std::string_view origin)
      : rest_(text), origin_(origin) {}

  /// Advances to the next line; false at the end of the text.
  bool next();

  /// Advances to the next line, failing at the end of the text with
  /// "unexpected end of stream (wanted <wanted>)".
  void advance(std::string_view wanted);

  /// Reads the first line and requires it to be `magic`.
  void expect_magic(std::string_view magic);

  /// Advances and requires the new line's tag to be `tag`.
  void expect(std::string_view tag);

  /// Advances and requires the new line to be "key=<rest>"; returns the
  /// rest verbatim (free-form records: labels, specs).
  [[nodiscard]] std::string_view expect_text(std::string_view key);

  /// Names the section later errors report ("cell list", "cell 3").
  void section(std::string name) { section_ = std::move(name); }

  [[nodiscard]] std::string_view line() const { return line_; }

  /// The current line's first space-separated token (its record tag).
  [[nodiscard]] std::string_view tag() const {
    return line_.substr(0, std::min(line_.find(' '), line_.size()));
  }

  /// The current line's space-separated tokens, tag first.
  [[nodiscard]] splitter tokens() const { return splitter{line_, ' '}; }

  /// The value of the first "key=value" token after the tag, or fail().
  [[nodiscard]] std::string_view value(std::string_view key) const;

  /// parse_number<T> (T = double or std::uint64_t) of `token`, its error
  /// naming `what`, the line and the section.
  template <class T>
  [[nodiscard]] T number(std::string_view token, std::string_view what) const;

  /// Typed value() reads; errors name the key.
  [[nodiscard]] std::uint64_t u64(std::string_view key) const {
    return number<std::uint64_t>(value(key), key);
  }
  [[nodiscard]] std::size_t size(std::string_view key) const {
    return static_cast<std::size_t>(u64(key));
  }
  [[nodiscard]] double real(std::string_view key) const {
    return number<double>(value(key), key);
  }

  /// The count-prefixed pair list of a record such as "lifetime values=2
  /// 0.5:1 2:3": the tokens after the tag that are not key=value fields,
  /// each "a:b" built as T{a, b} with a read as a double and b as `B`
  /// (double or std::uint64_t); there must be as many as the `count_key`
  /// field says. `item` names a pair in errors.
  template <class T, class B = double>
  [[nodiscard]] std::vector<T> pairs(std::string_view count_key,
                                     std::string_view item) const {
    const std::size_t count = size(count_key);
    std::vector<T> out;
    out.reserve(std::min(count, line_.size()));  // `count` is untrusted
    splitter s = tokens();
    std::string_view token;
    s.next(token);  // the tag
    while (s.next(token)) {
      if (split_kv(token)) continue;
      const std::size_t colon = token.find(':');
      if (colon == std::string_view::npos) {
        fail("malformed " + std::string{item} + " '" + std::string{token} +
             "' (want a:b)");
      }
      out.push_back(T{number<double>(token.substr(0, colon), item),
                      number<B>(token.substr(colon + 1), item)});
    }
    if (out.size() != count) {
      fail(std::string{item} + " count mismatch: header says " +
           std::to_string(count) + ", line carries " +
           std::to_string(out.size()));
    }
    return out;
  }

  /// Throws bsched::error "<origin>: line N (<section>): <why>".
  [[noreturn]] void fail(std::string_view why) const;

 private:
  std::string_view rest_;
  std::string_view line_;
  std::size_t line_no_ = 0;
  std::string_view origin_;
  std::string section_;
};

}  // namespace bsched::wire
