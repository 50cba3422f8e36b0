// String-keyed policy registry: every scheduling policy is constructible
// from a compact spec string, so experiments can be described as data
// ("best_of_n", "random:seed=42", "fixed:decisions=0-1-0-1") instead of
// hand-wired factory calls. The built-in names cover everything in
// policy.hpp; extra factories can be registered on a copy of the built-in
// registry — opt::model_registry adds the model-aware "opt", "worst" and
// "lookahead:horizon=N" this way (api::engine's default).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sched/policy.hpp"
#include "util/spec.hpp"

namespace bsched::sched {

class registry {
 public:
  /// Builds a policy from its parsed spec parameters. Factories must
  /// reject unknown parameters (spec::require_only).
  using factory = std::function<std::unique_ptr<policy>(const spec&)>;

  /// Registers `make` under `name`; replaces an existing entry.
  /// Factories must be pure in the spec — same spec, same behaviour, no
  /// outside entropy — because the whole experiment surface (batch
  /// determinism, the sweep cell cache, replication statistics) treats a
  /// policy spec string as a value. A factory drawing from e.g.
  /// std::random_device would make replications of its cells collapse
  /// into one cached sample; thread seeds through the spec instead, as
  /// "random:seed=N" does.
  void add(std::string name, factory make);

  /// Constructs a policy from "name" or "name:key=value,...".
  /// Throws bsched::error on unknown names or malformed parameters.
  [[nodiscard]] std::unique_ptr<policy> make(
      const std::string& spec_text) const;

  /// Constructs a policy from an already-parsed spec, so callers that have
  /// parsed the string (e.g. a wrapping registry's factory) don't parse it
  /// twice.
  [[nodiscard]] std::unique_ptr<policy> make(const spec& s) const;

  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// The registry with every policy of policy.hpp pre-registered:
  ///   sequential, round_robin, best_of_n, worst_of_n,
  ///   random:seed=N (default 0), fixed:decisions=I-I-...
  [[nodiscard]] static registry built_in();

 private:
  std::map<std::string, factory> factories_;
};

/// The spec string reconstructing `fixed_schedule(decisions)` through the
/// registry, e.g. "fixed:decisions=0-1-0-1".
[[nodiscard]] std::string fixed_spec(std::span<const std::size_t> decisions);

}  // namespace bsched::sched
