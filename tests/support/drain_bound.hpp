// The flat drain cap: the admissible lifetime bound the exact search's
// trajectory bound succeeds. The tests check the search against it and
// the trajectory bound never to exceed it.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "load/discretize.hpp"
#include "load/trace.hpp"
#include "util/error.hpp"

namespace bsched::opt {

/// Admissible upper bound (in time steps) on the remaining system lifetime
/// from the start of epoch `epoch_index`, given `alive_units` total charge
/// units across non-empty batteries (unit-additive because the bank shares
/// one grid): death no later than the time at which the load has drawn
/// every remaining unit.
inline std::int64_t drain_bound_steps(const load::step_sizes& steps,
                                      const load::trace& load,
                                      std::size_t epoch_index,
                                      std::int64_t alive_units) {
  require(alive_units >= 0, "drain_bound_steps: negative charge");
  if (alive_units == 0) return 0;
  std::int64_t total_steps = 0;
  std::int64_t remaining = alive_units;
  std::size_t idx = epoch_index;
  // The cycle always drains charge, so this loop terminates; the guard is a
  // hard cap against degenerate almost-idle loads.
  for (std::size_t guard = 0; guard < 100'000'000; ++guard, ++idx) {
    const load::epoch& e = load.at(idx);
    const std::int64_t len = std::llround(e.duration_min / steps.time_step_min);
    if (e.current_a <= 0) {
      total_steps += len;
      continue;
    }
    const load::draw_rate rate = load::rate_for(e.current_a, steps);
    const std::int64_t draws = len / rate.steps;
    const std::int64_t drawable = draws * rate.units;
    if (drawable < remaining) {
      remaining -= drawable;
      total_steps += len;
      continue;
    }
    const std::int64_t needed_draws =
        (remaining + rate.units - 1) / rate.units;
    return total_steps + needed_draws * rate.steps;
  }
  throw error("drain_bound_steps: load drains too slowly to bound");
}

}  // namespace bsched::opt
