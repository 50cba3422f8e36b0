// Discrete-time operational semantics for networks of priced timed automata.
//
// Time advances in unit steps; clocks are integers. For models whose guards
// and invariants are closed (non-strict) with integer constants — which the
// TA-KiBaM is — the corner-point abstraction theorem for priced timed
// automata guarantees that minimum-cost reachability computed on this
// discrete semantics coincides with the dense-time optimum.
//
// Supported, following Uppaal Cora: committed locations (urgent priority,
// delay disabled), binary channels (sender/receiver pairs in distinct
// automata), broadcast channels (sender plus every automaton with an
// enabled receiver, maximal progress), variable assignments in sender-then-
// receiver order, clock resets, cost rates on locations and cost updates on
// edges.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "pta/model.hpp"

namespace bsched::pta {

/// A discrete state of the network (cost excluded: it is search data).
struct dstate {
  std::vector<std::uint32_t> locations;  ///< One per automaton.
  var_store vars;
  std::vector<std::int32_t> clocks;

  friend bool operator==(const dstate&, const dstate&) = default;
};

struct dstate_hash {
  [[nodiscard]] std::size_t operator()(const dstate& s) const noexcept;
};

/// Which edges fired in a transition (for trace reporting).
struct fired_edge {
  automaton_id automaton;
  std::size_t edge_index;
};

/// One transition of the discrete semantics.
struct transition {
  dstate target;
  std::int64_t cost = 0;      ///< Non-negative cost increment.
  std::int64_t delay = 0;     ///< Steps of time passed (0 for actions).
  std::vector<fired_edge> edges;  ///< Empty for pure delays.

  /// Short rendering like "delay 4" or "load: new_job! / scheduler".
  [[nodiscard]] std::string describe(const network& net) const;
};

/// Successor generator over a fixed network. A run of states whose only
/// successor is a unit delay is always collapsed into one delay transition.
class semantics {
 public:
  explicit semantics(const network& net);

  [[nodiscard]] dstate initial() const;

  /// All transitions enabled in `s` (committed-location filtering applied;
  /// delay included when legal).
  [[nodiscard]] std::vector<transition> successors(const dstate& s) const;

  /// True when the invariants of every automaton hold in `s`.
  [[nodiscard]] bool invariants_hold(const dstate& s) const;

  [[nodiscard]] const network& net() const noexcept { return *net_; }

 private:
  [[nodiscard]] bool location_invariant_holds(const dstate& s,
                                              automaton_id a) const;
  [[nodiscard]] bool edge_enabled(const dstate& s, automaton_id a,
                                  const edge& e) const;
  /// Applies one edge's effects (assignments, resets) to `target`.
  void apply_edge(const edge& e, dstate& target, std::int64_t& cost) const;
  /// Appends the action successors of `s` to `out`.
  void action_successors(const dstate& s, std::vector<transition>& out) const;
  /// Computes the unit-delay successor, or nullopt when delay is illegal.
  [[nodiscard]] bool try_delay(const dstate& s, transition& out) const;

  const network* net_;
};

}  // namespace bsched::pta
