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
//
// advance_all memoises single-battery transitions. Between scheduling
// points the dKiBaM is deterministic, and the exact search, the simulator
// and the lookahead rollouts feed the kernel the same per-battery inputs
// over and over (every candidate's rollout replays nearly the same
// future). Each calling thread owns one fixed-size, direct-mapped table,
// heap-allocated (one block, 176 KiB) on the thread's first advance and
// freed at thread exit; a colliding entry simply replaces the old one.
// Two kinds of entry:
//   * resting:  (m, re, len)           -> (m', re')
//   * drawing:  (m, re, de, rate, len) -> (m', re', de', draws, need)
// A drawing entry is recorded from a window the battery survived. Until
// its first fatal draw, a window's steps do not depend on n (see
// advance.hpp), and draw j is fatal iff c n <= (1000 - c) m_j + c u j.
// `need` is the largest right-hand side over the window's draws, so
// c n > need proves that no draw is fatal and the stored outcome applies
// (n drops by draws * u); otherwise the exact kernel runs. Keys carry the
// discretization's process-unique serial(), so banks of different
// parameters share a thread's table without confusion, and a bank freed
// and rebuilt at the same address can never hit stale entries. There is
// nothing to configure.
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

  /// Advances every battery by up to `max_steps` time steps in O(events),
  /// bit-identical to that many per-tick kibam::step calls (battery
  /// `active` drawing at `rate`, every other battery resting; `idle`
  /// rests them all). Batteries never interact within a step, so the
  /// active battery is advanced with the full event-horizon kernel and
  /// every other battery recovers by exactly the number of steps it
  /// consumed. Stops early only when the active battery is observed empty
  /// (`died` at its exact step).
  ///
  /// Single-battery transitions are memoised per thread (see the file
  /// comment); the result is the kernel's, hit or miss.
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
