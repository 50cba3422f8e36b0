#include "util/text.hpp"

#include <charconv>

#include "util/error.hpp"

namespace bsched {

template <class T>
T parse_number(std::string_view text, std::string_view what) {
  T value{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    std::string msg{what};
    msg += ": not a valid number: '";
    msg += text;
    msg += '\'';
    throw error(msg);
  }
  return value;
}

template double parse_number<double>(std::string_view, std::string_view);
template std::uint64_t parse_number<std::uint64_t>(std::string_view,
                                                   std::string_view);

std::string shortest_double(double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, ptr);
}

}  // namespace bsched
