// The per-tick reference that bank::advance_all is differential-tested
// (tests/test_discrete.cpp) and timed (bench_micro's bm_bank_step_all)
// against: every battery of the bank advanced by one kibam::step. Also
// the random live battery states those tests and bench_micro's
// bm_advance_state_runs start the kernel from.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
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

/// A random state a live battery of type `d` can hold as it draws at
/// `rate`: charge that no single draw overdraws, a height below the empty
/// criterion and no larger than what was drawn (a quarter of the time
/// below 2, where recovery is unarmed), a recovery timer short of its
/// next fire and a discharge clock short of its next draw.
template <class Rng>
discrete_state random_live_state(const discretization& d,
                                 const load::draw_rate& rate, Rng& rng) {
  const auto uniform = [&rng](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(rng);
  };
  const std::int64_t big_n = d.total_units();
  const std::int64_t c = d.c_permille();
  discrete_state s;
  s.n = uniform(rate.units, big_n);
  // Alive: (1000 - c) m < c n; and m never exceeds what was drawn.
  const std::int64_t m_max =
      std::min(big_n - s.n, (c * s.n - 1) / (1000 - c));
  s.m = uniform(0, 3) == 0 ? uniform(0, std::min<std::int64_t>(1, m_max))
                           : uniform(0, m_max);
  s.recovery_elapsed = s.m >= 2 ? uniform(0, d.recovery_steps(s.m) - 1) : 0;
  s.discharge_elapsed = uniform(0, rate.steps - 1);
  return s;
}

}  // namespace bsched::kibam
