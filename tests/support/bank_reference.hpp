// The per-tick reference that bank::advance_all is differential-tested
// (tests/test_discrete.cpp) and timed (bench_micro's bm_bank_step_all)
// against: every battery of the bank advanced by one kibam::step.
#pragma once

#include <cstddef>
#include <vector>

#include "kibam/bank.hpp"
#include "kibam/discrete.hpp"
#include "load/discretize.hpp"

namespace bsched::kibam {

/// Advances every battery of `states` by one time step: battery `active`
/// draws at `rate`, every other battery rests (recovers). Returns the
/// active battery's step event (`none` when idle).
inline step_event step_all(const bank& bk, std::vector<discrete_state>& states,
                           std::size_t active = bank::idle,
                           const load::draw_rate& rate = {0, 0}) {
  static constexpr load::draw_rate k_rest{0, 0};
  step_event ev = step_event::none;
  for (std::size_t b = 0; b < states.size(); ++b) {
    const step_event e_b =
        step(bk.disc(b), states[b], b == active ? rate : k_rest);
    if (b == active) ev = e_b;
  }
  return ev;
}

}  // namespace bsched::kibam
