// Compilation of a load trace into the three arrays of Section 4.1:
// `load_time` (epoch end times), `cur_times` (steps per draw) and `cur`
// (charge units per draw). The paper generates these with "an external
// program"; this module is that program.
#pragma once

#include <cstdint>
#include <vector>

#include "load/trace.hpp"

namespace bsched::load {

/// Discretization constants shared with the dKiBaM (Section 2.3):
/// time in steps of `time_step_min`, charge in units of `charge_unit_amin`.
struct step_sizes {
  double time_step_min = 0.01;     ///< T, minutes per step.
  double charge_unit_amin = 0.01;  ///< Gamma, ampere-minutes per unit.

  friend bool operator==(const step_sizes&, const step_sizes&) = default;
};

/// The arrays of Table 1, for a finite horizon of epochs.
struct load_arrays {
  /// Absolute epoch end times, in time steps; strictly increasing.
  std::vector<std::int64_t> load_time;
  /// Steps between draws in each epoch (0 for idle epochs).
  std::vector<std::int64_t> cur_times;
  /// Charge units consumed per draw in each epoch (0 for idle epochs).
  std::vector<std::int64_t> cur;

  [[nodiscard]] std::size_t epochs() const noexcept {
    return load_time.size();
  }
};

/// How a constant current is realised on the discrete grid: `units` charge
/// units are drawn every `steps` time steps (eq. (7)).
struct draw_rate {
  std::int64_t units;
  std::int64_t steps;
};

/// Picks the draw rate approximating `amps` (units <= 8, error < 5%);
/// throws bsched::error when the grid is too coarse for the current.
[[nodiscard]] draw_rate rate_for(double amps, const step_sizes& steps = {});

/// Compiles the first `epoch_count` epochs of `t`.
///
/// For each job epoch the pair (cur, cur_times) realises the current via
/// eq. (7): I = cur * Gamma / (cur_times * T). When Gamma / (I*T) is not an
/// integer, the smallest multiple `cur <= 8` with a near-integral step count
/// is chosen and the residual error is below 5% (throws otherwise — such a
/// load needs a finer discretization).
[[nodiscard]] load_arrays discretize(const trace& t, std::size_t epoch_count,
                                     const step_sizes& steps = {});

}  // namespace bsched::load
