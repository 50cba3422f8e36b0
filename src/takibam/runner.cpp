#include "takibam/runner.hpp"

#include "util/error.hpp"

namespace bsched::takibam {

result analyze(const kibam::discretization& disc, const load::trace& trace,
               std::size_t battery_count, const pta::mcr_options& opts) {
  const model m = build(disc, trace, battery_count);
  const pta::semantics sem{m.net};
  const auto reach = pta::min_cost_reach(
      sem, pta::location_goal(m.max_finder, m.max_finder_done), opts);
  require(reach.has_value(),
          "takibam: done is unreachable — the compiled horizon or the "
          "model is broken");
  result out;
  out.lifetime_min = static_cast<double>(reach->elapsed_steps) *
                     disc.steps().time_step_min;
  out.residual_units = reach->cost;
  out.stats = reach->stats;
  out.trace = reach->trace;
  return out;
}

}  // namespace bsched::takibam
