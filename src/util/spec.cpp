#include "util/spec.hpp"

#include <algorithm>
#include <optional>
#include <string_view>

#include "util/error.hpp"
#include "util/text.hpp"
#include "util/wire.hpp"

namespace bsched {

namespace {

/// Parameter `key` parsed as a T, or `fallback` when it is absent.
template <class T>
T parse_param(const spec& s, const std::string& key, T fallback) {
  const auto it = s.params.find(key);
  if (it == s.params.end()) return fallback;
  try {
    return parse_number<T>(it->second, key);
  } catch (const error&) {
    throw error("spec '" + s.name + "': parameter " + key + "=" +
                it->second + " is not a valid number");
  }
}

}  // namespace

std::uint64_t spec::get_u64(const std::string& key,
                            std::uint64_t fallback) const {
  return parse_param<std::uint64_t>(*this, key, fallback);
}

double spec::get_double(const std::string& key, double fallback) const {
  return parse_param<double>(*this, key, fallback);
}

std::string spec::get_string(const std::string& key,
                             const std::string& fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

void spec::require_only(std::initializer_list<const char*> allowed) const {
  for (const auto& [key, value] : params) {
    const bool known = std::any_of(
        allowed.begin(), allowed.end(),
        [&](const char* a) { return key == a; });
    if (known) continue;
    // Name the offending key *and* the accepted set, so a typo like
    // "opt:max_nodez=1" tells the user what was meant to be written.
    std::string msg = "spec '";
    msg += name;
    msg += "': unknown parameter '";
    msg += key;
    msg += '\'';
    if (allowed.size() == 0) {
      msg += " (accepts no parameters)";
    } else {
      msg += " (accepted: ";
      bool first = true;
      for (const char* a : allowed) {
        if (!first) msg += ", ";
        msg += a;
        first = false;
      }
      msg += ')';
    }
    throw error(msg);
  }
}

std::string spec::str() const {
  std::string out = name;
  char sep = ':';
  for (const auto& [key, value] : params) {
    out += sep;
    out += key;
    out += '=';
    out += value;
    sep = ',';
  }
  return out;
}

spec parse_spec(const std::string& text) {
  spec out;
  const std::size_t colon = text.find(':');
  out.name = text.substr(0, colon);
  if (out.name.empty()) throw error("spec: empty name in '" + text + "'");
  if (colon == std::string::npos) return out;

  wire::splitter items{std::string_view{text}.substr(colon + 1), ','};
  for (std::string_view item; items.next(item);) {
    const std::optional<wire::key_value> kv = wire::split_kv(item);
    if (!kv || kv->key.empty()) {
      throw error("spec '" + out.name + "': expected key=value, got '" +
                  std::string{item} + "'");
    }
    const auto [at, fresh] =
        out.params.emplace(std::string{kv->key}, std::string{kv->value});
    if (!fresh) {
      throw error("spec '" + out.name + "': duplicate parameter '" +
                  at->first + "'");
    }
  }
  return out;
}

}  // namespace bsched
