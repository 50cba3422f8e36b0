#include "sched/registry.hpp"

#include <string_view>

#include "util/error.hpp"
#include "util/text.hpp"
#include "util/wire.hpp"

namespace bsched::sched {

namespace {

/// Parses a '-'-separated decision list, e.g. "0-1-0-1" or "2".
std::vector<std::size_t> parse_decisions(const std::string& text) {
  std::vector<std::size_t> out;
  if (text.empty()) return out;  // pure best-of-n fallback
  wire::splitter items{text, '-'};
  try {
    for (std::string_view item; items.next(item);) {
      out.push_back(static_cast<std::size_t>(parse_u64(item, "decision")));
    }
  } catch (const error&) {
    throw error(
        "fixed: decisions must be '-'-separated battery indices, got '" +
        text + "'");
  }
  return out;
}

}  // namespace

void registry::add(std::string name, factory make) {
  factories_[std::move(name)] = std::move(make);
}

std::unique_ptr<policy> registry::make(const std::string& spec_text) const {
  return make(parse_spec(spec_text));
}

std::unique_ptr<policy> registry::make(const spec& s) const {
  const auto it = factories_.find(s.name);
  if (it == factories_.end()) {
    std::string known;
    for (const auto& [name, unused] : factories_) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    throw error("registry: unknown policy '" + s.name + "' (known: " +
                known + ")");
  }
  return it->second(s);
}

std::vector<std::string> registry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, unused] : factories_) out.push_back(name);
  return out;
}

registry registry::built_in() {
  registry r;
  r.add("sequential", [](const spec& s) {
    s.require_only({});
    return sequential();
  });
  r.add("round_robin", [](const spec& s) {
    s.require_only({});
    return round_robin();
  });
  r.add("best_of_n", [](const spec& s) {
    s.require_only({});
    return best_of_n();
  });
  r.add("worst_of_n", [](const spec& s) {
    s.require_only({});
    return worst_of_n();
  });
  r.add("random", [](const spec& s) {
    s.require_only({"seed"});
    return random_choice(s.get_u64("seed", 0));
  });
  r.add("fixed", [](const spec& s) {
    s.require_only({"decisions"});
    require(s.has("decisions"),
            "fixed: requires a decisions parameter, e.g. "
            "'fixed:decisions=0-1-0-1'");
    return fixed_schedule(parse_decisions(s.get_string("decisions", "")));
  });
  return r;
}

std::string fixed_spec(std::span<const std::size_t> decisions) {
  std::string out = "fixed:decisions=";
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    if (i > 0) out += '-';
    out += std::to_string(decisions[i]);
  }
  return out;
}

}  // namespace bsched::sched
