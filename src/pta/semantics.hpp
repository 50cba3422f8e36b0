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

  /// The initial state; throws bsched::error when it violates an
  /// invariant.
  [[nodiscard]] dstate initial() const;

  /// All transitions enabled in `s` (committed-location filtering applied;
  /// delay included when legal).
  [[nodiscard]] std::vector<transition> successors(const dstate& s) const;

  [[nodiscard]] const network& net() const noexcept { return *net_; }

 private:
  const network* net_;
};

}  // namespace bsched::pta
