// Minimum-cost reachability for priced timed automata — the role Uppaal
// Cora plays in the paper. A uniform-cost (Dijkstra) search over the
// discrete semantics; edge costs are the non-negative price increments, so
// the first time a goal state is popped its cost is optimal. The witness
// run is reconstructed from parent pointers — that run *is* the schedule
// (Section 3.2).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "pta/semantics.hpp"

namespace bsched::pta {

/// Goal predicate over discrete states. Goals are evaluated only where an
/// accelerated delay run ends (see semantics), never inside one, so a goal
/// must depend on locations and variables, not on clock values.
using goal_predicate = std::function<bool(const dstate&)>;

struct mcr_options {
  std::uint64_t max_states = 50'000'000;  ///< Throws when exceeded.
  bool record_trace = true;               ///< Keep parent pointers.
};

struct mcr_stats {
  std::uint64_t expanded = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t duplicates = 0;
};

/// One step of a witness run.
struct trace_step {
  std::string description;  ///< From transition::describe.
  std::int64_t delay;       ///< Time steps consumed by this transition.
  std::int64_t cost;        ///< Cost increment.
};

struct mcr_result {
  std::int64_t cost = 0;               ///< Optimal cost to the goal.
  std::int64_t elapsed_steps = 0;      ///< Total delay along the witness.
  dstate goal;                         ///< The goal state reached.
  std::vector<trace_step> trace;       ///< Witness run (when recorded).
  mcr_stats stats;
};

/// Searches for the cheapest run from the initial state to a goal state.
/// Returns nullopt when the goal is unreachable.
[[nodiscard]] std::optional<mcr_result> min_cost_reach(
    const semantics& sem, const goal_predicate& goal,
    const mcr_options& opts = {});

/// Convenience goal: automaton `a` is in location `loc`.
[[nodiscard]] goal_predicate location_goal(automaton_id a, loc_id loc);

}  // namespace bsched::pta
