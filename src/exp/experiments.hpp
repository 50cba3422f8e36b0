// Experiment harness: programmatic versions of every table and figure in
// the paper's evaluation (Sections 5 and 6). The paper-artefact benches
// print the rows computed here and the tests check the same rows, so
// every reported number has one producer. The multi-battery experiments
// are expressed as declarative scenario sweeps evaluated through
// api::engine; only the single-battery validation tables drive the kibam
// models directly.
#pragma once

#include <cstddef>
#include <vector>

#include "kibam/discrete.hpp"
#include "kibam/parameters.hpp"
#include "load/jobs.hpp"
#include "opt/search.hpp"
#include "sched/simulator.hpp"

namespace bsched::exp {

/// One row of Table 3 (battery B1) or Table 4 (battery B2): the lifetime of
/// a single battery under a test load, analytic KiBaM vs discretized model.
struct validation_row {
  load::test_load load;
  double analytic_min;
  double discrete_min;
  double diff_percent;  ///< 100 * |discrete - analytic| / analytic.
};

/// Computes all ten rows for the given battery.
[[nodiscard]] std::vector<validation_row> validation_table(
    const kibam::battery_parameters& battery,
    const load::step_sizes& steps = {});

/// One row of Table 5: two-battery system lifetime under the four
/// scheduling schemes, plus differences relative to round robin.
struct scheduling_row {
  load::test_load load;
  double sequential_min;
  double sequential_diff_percent;
  double round_robin_min;
  double best_of_two_min;
  double best_of_two_diff_percent;
  double optimal_min;
  double optimal_diff_percent;
  /// Search effort summed over the row's cells (all zero for the blind
  /// schedulers; only the optimal column searches).
  opt::search_stats search;
};

/// Computes Table 5 for `battery_count` copies of `battery`.
/// `include_optimal = false` skips the (expensive) exact search.
[[nodiscard]] std::vector<scheduling_row> scheduling_table(
    const kibam::battery_parameters& battery, std::size_t battery_count = 2,
    bool include_optimal = true, const load::step_sizes& steps = {});

/// Figure 6: full charge-evolution traces and schedules for best-of-two
/// and the optimal schedule on a load (the paper uses ILs alt, 2 x B1).
struct figure6_data {
  sched::sim_result best_of_two;
  sched::sim_result optimal;
  double optimal_lifetime_min;  ///< From the search (equals replayed run).
};
[[nodiscard]] figure6_data figure6(const kibam::battery_parameters& battery,
                                   load::test_load l = load::test_load::ils_alt,
                                   const load::step_sizes& steps = {});

/// Section 6 residual-charge claim: fraction of the initial charge left in
/// the bank at system death, for a range of capacity scale factors
/// (best-of-two scheduling; continuous model so large capacities stay cheap).
struct residual_point {
  double scale;              ///< Capacity multiplier relative to B1.
  double capacity_amin;      ///< Per-battery capacity.
  double lifetime_min;
  double residual_fraction;  ///< Residual charge / initial charge.
};
[[nodiscard]] std::vector<residual_point> residual_sweep(
    const std::vector<double>& scales,
    load::test_load l = load::test_load::ils_alt);

/// Discretization ablation (Section 5's error discussion): dKiBaM lifetime
/// error against the analytic model as the grid is refined or coarsened.
struct ablation_point {
  double charge_unit_amin;
  double time_step_min;
  double discrete_min;
  double analytic_min;
  double error_percent;
};
[[nodiscard]] std::vector<ablation_point> discretization_sweep(
    const kibam::battery_parameters& battery, load::test_load l,
    const std::vector<load::step_sizes>& grids);

}  // namespace bsched::exp
