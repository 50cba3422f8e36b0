#include "net/message.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/error.hpp"
#include "util/text.hpp"
#include "util/wire.hpp"

namespace bsched::net {

std::uint64_t message::u64(const std::string& key) const {
  const std::string& value = str(key);
  try {
    return parse_u64(value, key);
  } catch (const error& e) {
    throw error("net: message '" + type + "' field " + e.what());
  }
}

const std::string& message::str(const std::string& key) const {
  const auto it = fields.find(key);
  if (it == fields.end()) {
    throw error("net: message '" + type + "' is missing field '" + key + "'");
  }
  return it->second;
}

message make(std::string type) {
  message m;
  m.type = std::move(type);
  return m;
}

namespace {

/// Longest header line decode accepts. Real headers are a few dozen
/// bytes; the cap stops a hostile peer from making us build a
/// multi-megabyte field map (or echo one back) out of a single frame.
/// Bodies are unaffected — bulky payloads belong there.
constexpr std::size_t max_header_bytes = 64 * 1024;

/// Control bytes (NUL, tabs, CR, DEL, ...) never appear in a valid
/// header; bytes >= 0x80 pass through opaquely (worker names may be
/// UTF-8).
bool is_header_byte(unsigned char c) { return c >= 0x20 && c != 0x7f; }

bool is_token(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (!is_header_byte(static_cast<unsigned char>(c)) || c == ' ' ||
        c == '=') {
      return false;
    }
  }
  return true;
}

/// At most `limit` bytes of hostile input, for error messages: enough
/// to identify the frame, never enough to amplify it.
std::string clip(std::string_view s, std::size_t limit = 64) {
  if (s.size() <= limit) return std::string{s};
  return std::string{s.substr(0, limit)} + "...";
}

}  // namespace

std::string encode(const message& m) {
  require(is_token(m.type), "net: message type must be a non-empty token");
  std::string out = "bsched-msg v" + std::to_string(protocol_version) + " ";
  out += m.type;
  for (const auto& [key, value] : m.fields) {
    require(is_token(key),
            "net: field name '" + key + "' is not a header token");
    require(std::all_of(value.begin(), value.end(),
                        [](char c) {
                          return is_header_byte(
                                     static_cast<unsigned char>(c)) &&
                                 c != ' ';
                        }),
            "net: field '" + key + "' value contains whitespace or "
            "control bytes — bulky payloads belong in the body");
    out += ' ';
    out += key;
    out += '=';
    out += value;
  }
  out += '\n';
  out += m.body;
  return out;
}

message decode(std::string_view frame) {
  const std::size_t eol = frame.find('\n');
  require(eol != std::string_view::npos,
          "net: frame has no header line terminator");
  if (eol > max_header_bytes) {
    throw error("net: header line of " + std::to_string(eol) +
                " bytes exceeds the " + std::to_string(max_header_bytes) +
                "-byte limit");
  }
  std::string_view header = frame.substr(0, eol);
  for (const char c : header) {
    if (!is_header_byte(static_cast<unsigned char>(c))) {
      throw error("net: header contains control bytes: '" + clip(header) +
                  "'");
    }
  }

  static const std::string magic =
      "bsched-msg v" + std::to_string(protocol_version);
  if (!header.starts_with(magic) || header.size() <= magic.size() ||
      header[magic.size()] != ' ') {
    throw error("net: bad message magic '" + clip(header) +
                "' (this peer speaks '" + magic + "')");
  }
  header.remove_prefix(magic.size() + 1);

  message m;
  wire::splitter tokens{header, ' '};
  std::string_view token;
  tokens.next(token);
  m.type = std::string{token};
  if (!is_token(m.type)) {
    throw error("net: message type '" + clip(m.type) +
                "' is not a non-empty header token");
  }
  while (tokens.next(token)) {
    if (token.empty()) continue;
    const std::optional<wire::key_value> kv = wire::split_kv(token);
    if (!kv || kv->key.empty()) {
      throw error("net: malformed header field '" + clip(token) +
                  "' in message '" + clip(m.type) + "'");
    }
    m.fields.emplace(std::string{kv->key}, std::string{kv->value});
  }
  m.body = std::string{frame.substr(eol + 1)};
  return m;
}

}  // namespace bsched::net
