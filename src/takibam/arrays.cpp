#include "takibam/arrays.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace bsched::takibam {

namespace {

/// Number of whole epochs after which the compiled load has drawn more
/// charge units than `battery_count` full batteries hold — no schedule can
/// outlive that horizon.
std::size_t epochs_needed(const kibam::discretization& disc,
                          const load::trace& trace,
                          std::size_t battery_count) {
  require(battery_count >= 1, "epochs_needed: need at least one battery");
  const std::int64_t total_units =
      disc.total_units() * static_cast<std::int64_t>(battery_count);
  std::int64_t drawable = 0;
  std::size_t epochs = 0;
  load::epoch_cursor cursor{trace};
  // Stop two epochs after the load could have drained every unit.
  while (drawable <= total_units + 2) {
    const load::epoch& e = cursor.current();
    if (e.current_a > 0) {
      const load::draw_rate rate = load::rate_for(e.current_a, disc.steps());
      const auto len = static_cast<std::int64_t>(
          std::llround(e.duration_min / disc.steps().time_step_min));
      drawable += (len / rate.steps) * rate.units;
    }
    ++epochs;
    cursor.advance();
    require(epochs < 1'000'000,
            "epochs_needed: load drains too slowly to bound the horizon");
  }
  return epochs + 2;
}

}  // namespace

tables build_tables(const kibam::discretization& disc,
                    const load::trace& trace, std::size_t battery_count) {
  tables t;
  const std::size_t epochs = epochs_needed(disc, trace, battery_count);
  t.load = load::discretize(trace, epochs, disc.steps());
  t.horizon_steps = t.load.load_time.back();
  t.max_cur_times =
      *std::max_element(t.load.cur_times.begin(), t.load.cur_times.end());

  // recov_time[m] for every reachable height index; entries 0 and 1 are
  // never read (recovery needs m >= 2) and hold a sentinel.
  const auto max_m = static_cast<std::size_t>(2 * disc.total_units() + 2);
  t.recov_time.resize(max_m + 1, 1);
  for (std::size_t m = 2; m <= max_m; ++m) {
    t.recov_time[m] = disc.recovery_steps(static_cast<std::int64_t>(m));
  }
  return t;
}

}  // namespace bsched::takibam
