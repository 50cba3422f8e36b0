// Running the TA-KiBaM: minimum-cost reachability of the maximum finder's
// `done` location yields the optimal schedule; its elapsed model time is
// the maximal system lifetime (Section 4.3). With one battery the network
// is deterministic up to interleaving and the run validates the
// discretized battery model (Section 5).
#pragma once

#include "kibam/discrete.hpp"
#include "load/trace.hpp"
#include "pta/mcr.hpp"
#include "takibam/network.hpp"

namespace bsched::takibam {

struct result {
  double lifetime_min = 0;          ///< Elapsed time to all-empty.
  std::int64_t residual_units = 0;  ///< Optimal cost = charge left.
  pta::mcr_stats stats;
  std::vector<pta::trace_step> trace;  ///< The witness run (the schedule).
};

/// Builds the network and searches for the minimum-cost (= maximum
/// lifetime) run. Throws when `done` is unreachable (model bug) or the
/// state budget is exhausted.
[[nodiscard]] result analyze(const kibam::discretization& disc,
                             const load::trace& trace,
                             std::size_t battery_count = 1,
                             const pta::mcr_options& opts = {});

}  // namespace bsched::takibam
