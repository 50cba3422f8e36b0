// The outcome of one scenario evaluation, shared by engine::run, the
// batch surface and the sweep sinks (sweep.hpp).
#pragma once

#include <string>

#include "opt/search.hpp"
#include "sched/simulator.hpp"

namespace bsched::api {

/// Outcome of one scenario.
struct run_result {
  sched::sim_result sim;
  /// Display name of the policy that ran (policy::name()), e.g.
  /// "best-of-n", "opt", "lookahead".
  std::string policy_name;
  /// Planning statistics the policy reported (policy::stats()): exact
  /// search effort (nodes, memo hits, pruned, memo entries)
  /// or rollout counts for the model-aware policies; all-zero for blind
  /// ones.
  opt::search_stats search;
  /// Empty on success. `engine::run` throws instead; `run_batch` and
  /// `run_sweep` capture per-scenario failures here so one bad scenario
  /// cannot sink a sweep.
  std::string error;

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }

  friend bool operator==(const run_result&, const run_result&) = default;
};

}  // namespace bsched::api
