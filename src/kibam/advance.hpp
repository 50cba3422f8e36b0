// Event-horizon stepping core, shared by every dKiBaM kernel.
//
// From any discrete state the next *interesting* tick is predictable: a
// recovery fire lands `recovery_steps(m) - recovery_elapsed` steps ahead,
// a draw lands `rate.steps - discharge_elapsed` steps ahead, and between
// two recovery fires the height difference only grows draw by draw — so
// within such a window both the first recovery fire (the table is
// monotone in m) and the death draw (each draw costs exactly 1000 * units
// permille of available charge) can be located in closed form.
// advance_state below exploits this to advance whole inter-event gaps in O(1)
// per event instead of O(1) per tick, bit-identical to step():
//   * per-tick order is preserved — at a tied tick the recovery fire is
//     applied before the draw, exactly like the two automata of Fig. 5;
//   * counters at every return point equal the per-tick counters after
//     the same number of steps (differential-tested in
//     tests/test_discrete.cpp).
//
// n enters a window only through the death draw: it caps each run of
// draws at the fatal one and is otherwise never read. So two states that
// differ only in n take the same steps (m, both timers, number of draws)
// until one of them meets a fatal draw. Draw j is fatal iff
//   c n <= (1000 - c) m_j + c u j        (eq. (8) after j draws of u)
// — the survival bound bank::advance_all's transition memo checks before
// it reuses a window recorded at another n.
#pragma once

#include <algorithm>
#include <cstdint>

#include "kibam/discrete.hpp"
#include "load/discretize.hpp"
#include "util/error.hpp"

namespace bsched::kibam::detail {

/// Advances a battery that draws nothing by exactly `steps` steps: only
/// the recovery process runs, one O(1) jump per fire. Mirrors step() with
/// an idle rate bit-exactly (including the timer zeroing below m = 2).
inline void advance_rest(const discretization& d, std::int64_t& m,
                         std::int64_t& recovery_elapsed,
                         std::int64_t steps) noexcept {
  while (m >= 2) {
    const std::int64_t fire =
        std::max<std::int64_t>(1, d.recovery_steps(m) - recovery_elapsed);
    if (fire > steps) {
      recovery_elapsed += steps;
      return;
    }
    --m;
    recovery_elapsed = 0;
    steps -= fire;
  }
  recovery_elapsed = 0;  // step() zeroes the timer every tick while m < 2
}

/// The draw observer of plain advances: ignores every draw.
struct ignore_draws {
  void operator()(const discrete_state& /*after*/) const noexcept {}
};

/// The event-horizon advance behind kibam::discrete_lifetime and
/// bank::advance_all. Consumes up to `max_steps` steps, returning early
/// only at the death draw; see the header comment for the invariant.
/// `on_draws` sees the state right after each draw or closed-form run of
/// draws. Every draw of a run lowers the available charge by 1000 u
/// permille, so the states it sees carry the window's lowest available
/// charge, which is what bank::advance_all's transition memo keys its
/// survival bound on.
template <typename OnDraws = ignore_draws>
inline advance_result advance_state(const discretization& d,
                                    discrete_state& s,
                                    const load::draw_rate& rate,
                                    std::int64_t max_steps,
                                    OnDraws on_draws = {}) {
  BSCHED_ASSERT(max_steps > 0);
  if (rate.steps <= 0 || s.empty) {
    advance_rest(d, s.m, s.recovery_elapsed, max_steps);
    return {max_steps, step_event::none};
  }
  const std::int64_t p = rate.steps;
  const std::int64_t u = rate.units;
  std::int64_t done = 0;
  while (done < max_steps) {
    const std::int64_t rem = max_steps - done;
    const std::int64_t dk = std::max<std::int64_t>(1, p - s.discharge_elapsed);
    const bool armed = s.m >= 2;
    if (armed) {
      const std::int64_t r =
          std::max<std::int64_t>(1, d.recovery_steps(s.m) - s.recovery_elapsed);
      if (r <= rem && r <= dk) {
        // The recovery fire comes first; at a tied tick it still runs
        // before the draw (step() orders recovery before discharge).
        --s.m;
        s.recovery_elapsed = 0;
        s.discharge_elapsed += r;
        done += r;
        if (r == dk) {
          s.n -= u;
          s.m += u;
          s.discharge_elapsed = 0;
          BSCHED_ASSERT(s.n >= 0);
          on_draws(s);
          if (d.is_empty(s.n, s.m)) {
            s.empty = true;
            return {done, step_event::died};
          }
        }
        continue;
      }
    }
    if (dk > rem) {  // neither a draw nor a recovery fire within reach
      if (armed) {
        s.recovery_elapsed += rem;
      } else {
        s.recovery_elapsed = 0;
      }
      s.discharge_elapsed += rem;
      return {max_steps, step_event::none};
    }
    // A run of draws before the next recovery fire. Draw j lands at tick
    // t_j = dk + (j-1) p; the j-th draw is fatal iff it exhausts the
    // available charge (1000 u permille per draw), and the recovery timer
    // cannot fire through tick t_j as long as
    //   recovery_elapsed + t_j < recovery_steps(m + u (j-1))
    // (the left side grows, the right side shrinks with j, so safety is
    // monotone in j). Most runs are short, so the largest safe j is found
    // by galloping from 1 (probing 2, 4, 8, ... up to the cap) and then
    // bisecting the last bracket over the precomputed table.
    const std::int64_t avail = d.available_permille(s.n, s.m);
    BSCHED_ASSERT(avail > 0);
    const std::int64_t death_j = (avail + 1000 * u - 1) / (1000 * u);
    const std::int64_t rem_j = (rem - dk) / p + 1;
    const std::int64_t cap = std::min(death_j, rem_j);
    std::int64_t batch = 1;
    if (armed) {
      const auto safe = [&](std::int64_t j) {
        return s.recovery_elapsed + dk + (j - 1) * p <
               d.recovery_steps(s.m + u * (j - 1));
      };
      std::int64_t lo = 1;  // safe: dk < recovery horizon was checked above
      std::int64_t hi = cap + 1;  // the least j known unsafe, or past cap
      while (lo < cap) {
        const std::int64_t j = std::min(2 * lo, cap);
        if (!safe(j)) {
          hi = j;
          break;
        }
        lo = j;
      }
      while (hi - lo > 1) {
        const std::int64_t mid = lo + (hi - lo) / 2;
        if (safe(mid)) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      batch = lo;
    } else {
      // Recovery is unarmed (m < 2) and arms only once a draw lifts m to
      // 2; batch up to that draw and let the next round treat the armed
      // window. The timer stays zeroed through the whole run.
      const std::int64_t arm_j = (2 - s.m + u - 1) / u;
      batch = std::min(cap, arm_j);
    }
    const std::int64_t consumed = dk + (batch - 1) * p;
    s.n -= batch * u;
    s.m += batch * u;
    s.discharge_elapsed = 0;
    if (armed) {
      s.recovery_elapsed += consumed;
    } else {
      s.recovery_elapsed = 0;
    }
    done += consumed;
    BSCHED_ASSERT(s.n >= 0);
    on_draws(s);
    if (batch == death_j) {
      BSCHED_ASSERT(d.is_empty(s.n, s.m));
      s.empty = true;
      return {done, step_event::died};
    }
  }
  return {max_steps, step_event::none};
}

}  // namespace bsched::kibam::detail
