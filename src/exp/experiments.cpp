#include "exp/experiments.hpp"

#include <cmath>

#include "api/engine.hpp"
#include "api/scenario.hpp"
#include "opt/search.hpp"
#include "sched/registry.hpp"
#include "util/error.hpp"

namespace bsched::exp {

namespace {

double percent_diff(double value, double reference) {
  return 100.0 * (value - reference) / reference;
}

}  // namespace

std::vector<validation_row> validation_table(
    const kibam::battery_parameters& battery, const load::step_sizes& steps) {
  const kibam::discretization disc{battery, steps};
  std::vector<validation_row> rows;
  rows.reserve(load::all_test_loads().size());
  for (const load::test_load l : load::all_test_loads()) {
    const load::trace trace = load::paper_trace(l);
    const double analytic = kibam::lifetime(battery, trace);
    const double discrete = kibam::discrete_lifetime(disc, trace);
    rows.push_back({l, analytic, discrete,
                    std::abs(percent_diff(discrete, analytic))});
  }
  return rows;
}

std::vector<scheduling_row> scheduling_table(
    const kibam::battery_parameters& battery, std::size_t battery_count,
    bool include_optimal, const load::step_sizes& steps) {
  // Table 5 as a declarative sweep: one scenario per load x policy cell,
  // evaluated through the batch engine.
  std::vector<std::string> policies{"sequential", "round_robin",
                                    "best_of_n"};
  if (include_optimal) policies.push_back("opt");
  std::vector<api::load_spec> loads;
  for (const load::test_load l : load::all_test_loads()) {
    loads.emplace_back(l);
  }
  std::vector<api::scenario> scenarios =
      api::cross({api::bank(battery_count, battery)}, loads, policies,
                 {api::fidelity::discrete});
  for (api::scenario& s : scenarios) s.steps = steps;

  // Every cell runs before the first failure is rethrown: one bad cell
  // cannot sink the batch mid-flight.
  const std::vector<api::run_result> results =
      api::engine{}.run_batch(scenarios);
  for (const api::run_result& r : results) {
    require(r.ok(), "exp: scenario failed: " + r.error);
  }

  std::vector<scheduling_row> rows;
  rows.reserve(loads.size());
  const std::size_t cells = policies.size();
  for (std::size_t l = 0; l < loads.size(); ++l) {
    const api::run_result* cell = &results[l * cells];
    scheduling_row row{};
    row.load = load::all_test_loads()[l];
    row.sequential_min = cell[0].sim.lifetime_min;
    row.round_robin_min = cell[1].sim.lifetime_min;
    row.best_of_two_min = cell[2].sim.lifetime_min;
    for (std::size_t c = 0; c < cells; ++c) row.search += cell[c].search;
    row.sequential_diff_percent =
        percent_diff(row.sequential_min, row.round_robin_min);
    row.best_of_two_diff_percent =
        percent_diff(row.best_of_two_min, row.round_robin_min);
    if (include_optimal) {
      row.optimal_min = cell[3].sim.lifetime_min;
      row.optimal_diff_percent =
          percent_diff(row.optimal_min, row.round_robin_min);
    }
    rows.push_back(row);
  }
  return rows;
}

figure6_data figure6(const kibam::battery_parameters& battery,
                     load::test_load l, const load::step_sizes& steps) {
  api::scenario base{.label = {},
                     .batteries = api::bank(2, battery),
                     .load = l,
                     .policy = "best_of_n",
                     .model = api::fidelity::discrete,
                     .steps = steps,
                     .sim = {}};
  base.sim.record_trace = true;
  base.sim.sample_min = 0.05;

  const api::engine engine;
  figure6_data out;
  out.best_of_two = engine.run(base).sim;

  // One exact search; its decision list replays through the registry's
  // "fixed" policy, cross-checking schedule and lifetime.
  const kibam::discretization disc{battery, steps};
  const opt::optimal_result best =
      opt::optimal_schedule(disc, 2, load::paper_trace(l));
  out.optimal_lifetime_min = best.lifetime_min;
  api::scenario optimal = base;
  optimal.policy = sched::fixed_spec(best.decisions);
  out.optimal = engine.run(optimal).sim;
  return out;
}

std::vector<residual_point> residual_sweep(const std::vector<double>& scales,
                                           load::test_load l) {
  require(!scales.empty(), "residual_sweep: need at least one scale");
  api::sweep sweep;
  sweep.reseed = false;
  sweep.cells.reserve(scales.size());
  for (const double scale : scales) {
    require(scale > 0, "residual_sweep: scales must be positive");
    api::scenario s{.label = {},
                    .batteries =
                        api::bank(2, kibam::itsy_battery(5.5 * scale)),
                    .load = l,
                    .policy = "best_of_n",
                    .model = api::fidelity::continuous,
                    .steps = {},
                    .sim = {}};
    s.sim.horizon_min = 1e7;
    sweep.cells.push_back(std::move(s));
  }

  // Streamed through the sink: only the two numbers each point needs are
  // retained, not the full sim_result vectors.
  std::vector<residual_point> out(scales.size());
  std::string first_error;
  const api::engine engine;
  engine.run_sweep(sweep, [&](const api::sweep_result& r) {
    if (!r.result.ok()) {
      if (first_error.empty()) first_error = r.result.error;
      return;
    }
    const double capacity =
        sweep.cells[r.cell].batteries.front().capacity_amin;
    const double initial = 2 * capacity;
    out[r.cell] = {scales[r.cell], capacity, r.result.sim.lifetime_min,
                   r.result.sim.residual_amin / initial};
  });
  require(first_error.empty(), "exp: scenario failed: " + first_error);
  return out;
}

std::vector<ablation_point> discretization_sweep(
    const kibam::battery_parameters& battery, load::test_load l,
    const std::vector<load::step_sizes>& grids) {
  require(!grids.empty(), "discretization_sweep: need at least one grid");
  const load::trace trace = load::paper_trace(l);
  const double analytic = kibam::lifetime(battery, trace);
  std::vector<ablation_point> out;
  out.reserve(grids.size());
  for (const load::step_sizes& grid : grids) {
    const kibam::discretization disc{battery, grid};
    const double discrete = kibam::discrete_lifetime(disc, trace);
    out.push_back({grid.charge_unit_amin, grid.time_step_min, discrete,
                   analytic,
                   std::abs(percent_diff(discrete, analytic))});
  }
  return out;
}

}  // namespace bsched::exp
