#include "load/discretize.hpp"

#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace bsched::load {

draw_rate rate_for(double amps, const step_sizes& s) {
  require(amps > 0, "rate_for: current must be positive");
  require(s.time_step_min > 0 && s.charge_unit_amin > 0,
          "rate_for: step sizes must be positive");
  const double steps_per_unit = s.charge_unit_amin / (amps * s.time_step_min);
  require(steps_per_unit >= 1.0,
          "discretize: current too high for the charge/time units; "
          "use a smaller time step");
  draw_rate best{1, 1};
  double best_err = std::numeric_limits<double>::infinity();
  for (std::int64_t units = 1; units <= 8; ++units) {
    const double ideal = steps_per_unit * static_cast<double>(units);
    const auto steps = static_cast<std::int64_t>(std::llround(ideal));
    if (steps < 1) continue;
    const double err = std::abs(static_cast<double>(steps) - ideal) / ideal;
    if (err < best_err) {
      best_err = err;
      best = {units, steps};
      if (err == 0) break;
    }
  }
  require(best_err < 0.05,
          "discretize: cannot realise current within 5%; refine the grid");
  return best;
}

load_arrays discretize(const trace& t, std::size_t epoch_count,
                       const step_sizes& s) {
  require(epoch_count > 0, "discretize: need at least one epoch");
  require(s.time_step_min > 0 && s.charge_unit_amin > 0,
          "discretize: step sizes must be positive");
  load_arrays out;
  out.load_time.reserve(epoch_count);
  out.cur_times.reserve(epoch_count);
  out.cur.reserve(epoch_count);

  std::int64_t end_steps = 0;
  epoch_cursor cursor{t};
  for (std::size_t y = 0; y < epoch_count; ++y, cursor.advance()) {
    const epoch& e = cursor.current();
    const double len_steps = e.duration_min / s.time_step_min;
    const auto rounded = static_cast<std::int64_t>(std::llround(len_steps));
    require(std::abs(static_cast<double>(rounded) - len_steps) < 1e-6 &&
                rounded > 0,
            "discretize: epoch durations must be integral in time steps");
    end_steps += rounded;
    out.load_time.push_back(end_steps);
    if (e.current_a > 0) {
      const draw_rate rate = rate_for(e.current_a, s);
      out.cur_times.push_back(rate.steps);
      out.cur.push_back(rate.units);
    } else {
      out.cur_times.push_back(0);
      out.cur.push_back(0);
    }
  }
  return out;
}

}  // namespace bsched::load
