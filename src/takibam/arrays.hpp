// Precomputed integer tables of the TA-KiBaM (Table 1 of the paper):
// the load arrays (load_time / cur_times / cur) and the recovery-time
// array recov_time, plus the horizon sizing that guarantees the compiled
// load outlives every possible schedule.
#pragma once

#include <cstdint>
#include <vector>

#include "kibam/discrete.hpp"
#include "load/discretize.hpp"
#include "load/trace.hpp"

namespace bsched::takibam {

/// All integer tables imported into the timed-automata network.
struct tables {
  load::load_arrays load;               ///< Section 4.1 arrays.
  std::vector<std::int64_t> recov_time; ///< Eq. (6) per height index.
  std::int64_t max_cur_times = 0;       ///< For clock caps.
  std::int64_t horizon_steps = 0;       ///< End of the compiled load.
};

/// Builds every table for `battery_count` batteries under `trace`. The
/// load is compiled for as many whole epochs as it takes to draw more
/// charge units than `battery_count` full batteries hold (plus two), so
/// no schedule can outlive the horizon.
[[nodiscard]] tables build_tables(const kibam::discretization& disc,
                                  const load::trace& trace,
                                  std::size_t battery_count);

}  // namespace bsched::takibam
