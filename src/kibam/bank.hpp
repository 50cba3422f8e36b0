// A battery bank on one shared discrete grid.
//
// The multi-battery simulator, the exact search and the rollout scheduler
// all advance the same thing: a vector of per-battery dKiBaM states, each
// stepped on its own battery type's discretization over a common
// (T, Gamma) grid. This class is that shared representation: the
// deduplicated per-type discretizations (identical parameters share one
// precomputed recovery table) plus the battery -> type map. Banks may be
// heterogeneous in capacity and KiBaM parameters; the grid is common, so
// charge units are additive across batteries (the drain bound relies on
// this) and available-charge permille values are comparable between types.
#pragma once

#include <cstdint>
#include <vector>

#include "kibam/discrete.hpp"
#include "kibam/parameters.hpp"
#include "load/discretize.hpp"

namespace bsched::kibam {

class bank {
 public:
  /// One battery per entry of `batteries`, all discretized on `steps`.
  explicit bank(const std::vector<battery_parameters>& batteries,
                const load::step_sizes& steps = {});

  /// `count` identical batteries over an existing discretization (the
  /// paper's Tables 3-5 setup).
  bank(discretization disc, std::size_t count);

  [[nodiscard]] std::size_t size() const noexcept { return type_of_.size(); }

  /// Distinct battery types (deduplicated parameter sets).
  [[nodiscard]] std::size_t type_count() const noexcept {
    return discs_.size();
  }
  [[nodiscard]] bool homogeneous() const noexcept {
    return discs_.size() == 1;
  }

  /// Type index of battery `b` (two batteries are interchangeable for
  /// scheduling purposes iff they share a type and a state).
  [[nodiscard]] std::size_t type_of(std::size_t b) const {
    return type_of_[b];
  }

  /// The discretization stepping battery `b`.
  [[nodiscard]] const discretization& disc(std::size_t b) const {
    return discs_[type_of_[b]];
  }

  /// The common grid every battery is stepped on.
  [[nodiscard]] const load::step_sizes& steps() const noexcept {
    return discs_.front().steps();
  }

  /// A freshly charged state per battery — also the cheap snapshot format
  /// for rollouts: copy the vector, step the copy, drop it to restore.
  [[nodiscard]] std::vector<discrete_state> full_states() const;

  /// No battery serves (all rest/recover) this step.
  static constexpr std::size_t idle = static_cast<std::size_t>(-1);

  /// Advances every battery of `states` by one time step: battery
  /// `active` draws at `rate`, every other battery rests (recovers).
  /// Returns the active battery's step event (`none` when idle). The
  /// per-tick reference for tests and bench_micro: the simulator, the
  /// exact search and the rollout scheduler all advance through
  /// advance_all, which must stay bit-identical to repeated calls here.
  step_event step_all(std::vector<discrete_state>& states,
                      std::size_t active = idle,
                      const load::draw_rate& rate = {0, 0}) const;

  /// Advances every battery by up to `max_steps` time steps in O(events),
  /// bit-identical to that many step_all calls. Batteries never interact
  /// within a step, so the active battery is advanced with the full
  /// event-horizon kernel and every other battery recovers by exactly the
  /// number of steps it consumed. Stops early only when the active battery
  /// is observed empty (`died` at its exact step).
  advance_result advance_all(std::vector<discrete_state>& states,
                             std::size_t active,
                             const load::draw_rate& rate,
                             std::int64_t max_steps) const;

  /// Total capacity of the bank in charge units (sum of per-battery N).
  [[nodiscard]] std::int64_t total_units() const;

 private:
  std::vector<discretization> discs_;  ///< One per battery type.
  std::vector<std::size_t> type_of_;   ///< Battery -> entry in discs_.
};

}  // namespace bsched::kibam
