// Portable number <-> text round-tripping.
//
// The sweep codec (dist/codec.hpp) and the declarative spec descriptions
// (load_spec::describe()) both need doubles rendered so that reading the
// text back reproduces the original value bit-exactly on any platform.
// std::to_chars gives the shortest decimal form with that guarantee; the
// parsers here are its strict full-string inverses.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace bsched {

/// Shortest decimal form that parses back to exactly `v` (std::to_chars
/// round-trip guarantee), e.g. "0.1", "5.5", "1e-09".
[[nodiscard]] std::string shortest_double(double v);

/// Parses a full-string double or std::uint64_t (the shortest_double and
/// integer-rendering inverse). Throws bsched::error naming `what` when the
/// text is not exactly one number of type T, out-of-range values included.
template <class T>
[[nodiscard]] T parse_number(std::string_view text, std::string_view what);

[[nodiscard]] inline std::uint64_t parse_u64(std::string_view text,
                                             std::string_view what) {
  return parse_number<std::uint64_t>(text, what);
}

}  // namespace bsched
