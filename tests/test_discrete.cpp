#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "kibam/advance.hpp"
#include "kibam/bank.hpp"
#include "kibam/discrete.hpp"
#include "load/jobs.hpp"
#include "support/bank_reference.hpp"
#include "util/error.hpp"

namespace bsched::kibam {
namespace {

discretization paper_disc_b1() { return discretization{battery_b1()}; }

TEST(Discretization, PaperConstants) {
  const discretization d = paper_disc_b1();
  EXPECT_EQ(d.total_units(), 550);  // 5.5 / 0.01
  EXPECT_EQ(d.c_permille(), 166);
  EXPECT_EQ(discretization{battery_b2()}.total_units(), 1100);
}

TEST(Discretization, RecoveryTableMatchesEq6) {
  const discretization d = paper_disc_b1();
  // t(m) = ln(m/(m-1)) / k', in steps of 0.01 min, rounded to nearest.
  EXPECT_EQ(d.recovery_steps(2),
            std::llround(std::log(2.0) / 0.122 / 0.01));  // 568
  EXPECT_EQ(d.recovery_steps(2), 568);
  EXPECT_EQ(d.recovery_steps(10),
            std::llround(std::log(10.0 / 9.0) / 0.122 / 0.01));
  // Monotone decreasing in m: higher height difference recovers faster.
  for (std::int64_t m = 3; m < 400; ++m) {
    EXPECT_LE(d.recovery_steps(m), d.recovery_steps(m - 1)) << m;
  }
  // m < 2 is an internal invariant violation (hot-path assert, not a
  // throwing precondition): eq. (6) diverges at m = 1.
  EXPECT_DEATH_IF_SUPPORTED((void)d.recovery_steps(1), "m >= 2");
}

TEST(Discretization, EmptyConditionPermille) {
  const discretization d = paper_disc_b1();
  // (1000 - c) m >= c n with c = 166.
  EXPECT_FALSE(d.is_empty(550, 0));
  EXPECT_TRUE(d.is_empty(0, 1));
  EXPECT_TRUE(d.is_empty(100, 20));   // 834*20 = 16680 >= 16600
  EXPECT_FALSE(d.is_empty(100, 19));  // 834*19 = 15846 < 16600
}

TEST(Discretization, AvailablePermilleTracksContinuousY1) {
  const discretization d = paper_disc_b1();
  const std::int64_t n = 300, m = 40;
  const state cont = d.to_continuous(n, m);
  const double y1 = available_charge(d.params(), cont);
  const double scaled = static_cast<double>(d.available_permille(n, m)) *
                        d.steps().charge_unit_amin / 1000.0;
  EXPECT_NEAR(y1, scaled, 1e-9);
}

TEST(DiscreteStep, DrawsEveryCurTimesSteps) {
  const discretization d = paper_disc_b1();
  discrete_state s = full_discrete(d);
  const load::draw_rate rate{1, 4};  // 250 mA
  int draws = 0;
  for (int i = 0; i < 40; ++i) {
    if (step(d, s, rate) == step_event::drew) ++draws;
  }
  EXPECT_EQ(draws, 10);
  EXPECT_EQ(s.n, 540);
  EXPECT_EQ(s.m, 10);
}

TEST(DiscreteStep, IdleOnlyRecovers) {
  const discretization d = paper_disc_b1();
  discrete_state s = full_discrete(d);
  s.m = 10;
  const std::int64_t n_before = s.n;
  // recovery_steps(10) steps later m must have dropped by exactly 1.
  const std::int64_t wait = d.recovery_steps(10);
  for (std::int64_t i = 0; i < wait; ++i) step(d, s, {0, 0});
  EXPECT_EQ(s.m, 9);
  EXPECT_EQ(s.n, n_before);
}

TEST(DiscreteStep, NoRecoveryBelowTwo) {
  const discretization d = paper_disc_b1();
  discrete_state s = full_discrete(d);
  s.m = 1;
  for (int i = 0; i < 100'000; ++i) step(d, s, {0, 0});
  EXPECT_EQ(s.m, 1);  // eq. (6) diverges at m = 1; no recovery possible
}

TEST(DiscreteStep, DeathObservedOnDraw) {
  const discretization d = paper_disc_b1();
  discrete_state s = full_discrete(d);
  // Arrange a state one draw away from empty: after the draw m/n trip (8).
  s.n = 100;
  s.m = 19;  // not empty; drawing makes n=99, m=20 -> 834*20 >= 166*99
  s.discharge_elapsed = 3;
  const auto ev = step(d, s, {1, 4});
  EXPECT_EQ(ev, step_event::died);
  EXPECT_TRUE(s.empty);
  // Empty batteries never draw again.
  const auto after = step(d, s, {1, 4});
  EXPECT_EQ(after, step_event::none);
  EXPECT_EQ(s.n, 99);
}

// --- Event-horizon advance vs the per-tick reference. ---

TEST(AdvanceUntil, BitIdenticalToPerTickStepping) {
  // Random discharge rates, slice lengths and idle phases; after every
  // advance_state the state must equal the per-tick state after the same
  // number of steps, and a death must land on the exact per-tick death
  // step. Both battery types exercise different recovery tables.
  for (const auto& params : {battery_b1(), battery_b2()}) {
    const discretization d{params};
    std::mt19937_64 rng{0x5eed + static_cast<std::uint64_t>(d.total_units())};
    std::uniform_int_distribution<int> units_dist{1, 3};
    std::uniform_int_distribution<int> steps_dist{1, 7};
    std::uniform_int_distribution<std::int64_t> len_dist{1, 900};
    std::uniform_int_distribution<int> kind_dist{0, 4};
    for (int trial = 0; trial < 25; ++trial) {
      discrete_state fast = full_discrete(d);
      discrete_state ref = fast;
      for (int seg = 0; seg < 400 && !ref.empty; ++seg) {
        const bool idle = kind_dist(rng) == 0;
        const load::draw_rate rate =
            idle ? load::draw_rate{0, 0}
                 : load::draw_rate{units_dist(rng), steps_dist(rng)};
        if (kind_dist(rng) == 1) {
          // Epoch boundary: the go_on edge resets the discharge clock.
          fast.discharge_elapsed = 0;
          ref.discharge_elapsed = 0;
        }
        const std::int64_t max_steps = len_dist(rng);
        const advance_result a =
            detail::advance_state(d, fast, rate, max_steps);
        ASSERT_GE(a.steps, 1);
        ASSERT_LE(a.steps, max_steps);
        for (std::int64_t i = 1; i <= a.steps; ++i) {
          const step_event ev = step(d, ref, rate);
          if (ev == step_event::died) {
            // Deaths must coincide exactly with the advance's early return.
            ASSERT_EQ(i, a.steps) << "per-tick death before advance return";
            ASSERT_EQ(a.event, step_event::died);
          }
        }
        if (a.event == step_event::died) {
          ASSERT_TRUE(ref.empty) << "advance died where per-tick survived";
        } else {
          ASSERT_EQ(a.steps, max_steps);
        }
        ASSERT_EQ(fast, ref) << "trial " << trial << " segment " << seg;
      }
    }
  }
}

/// How advance_state's first run of draws from `s` picks its batch: the
/// cases the run search must get right, classified from the same window
/// arithmetic (the next-draw tick, the death and remaining-steps caps and
/// the no-recovery-fire predicate, monotone in the draw count j).
enum class first_run {
  other,        ///< No run first: a recovery fire, or no draw in reach.
  single,       ///< A run capped at one draw.
  whole_cap,    ///< Armed, and every draw up to the cap is safe.
  first_probe,  ///< Armed, and draw 2 is already unsafe.
  bracketed,    ///< Armed, and the largest safe draw is inside the cap.
  arming,       ///< Unarmed, and the run ends at the draw that arms it.
  unarmed,      ///< Unarmed, and the cap comes before the arming draw.
};

first_run classify(const discretization& d, const discrete_state& s,
                   const load::draw_rate& rate, std::int64_t max_steps) {
  const std::int64_t p = rate.steps;
  const std::int64_t u = rate.units;
  const std::int64_t dk = std::max<std::int64_t>(1, p - s.discharge_elapsed);
  const bool armed = s.m >= 2;
  if (armed && std::max<std::int64_t>(1, d.recovery_steps(s.m) -
                                             s.recovery_elapsed) <=
                   std::min(max_steps, dk)) {
    return first_run::other;
  }
  if (dk > max_steps) return first_run::other;
  const std::int64_t avail = d.available_permille(s.n, s.m);
  const std::int64_t cap = std::min((avail + 1000 * u - 1) / (1000 * u),
                                    (max_steps - dk) / p + 1);
  if (!armed) {
    return (2 - s.m + u - 1) / u <= cap ? first_run::arming
                                        : first_run::unarmed;
  }
  if (cap == 1) return first_run::single;
  const auto safe = [&](std::int64_t j) {
    return s.recovery_elapsed + dk + (j - 1) * p <
           d.recovery_steps(s.m + u * (j - 1));
  };
  if (safe(cap)) return first_run::whole_cap;
  return safe(2) ? first_run::bracketed : first_run::first_probe;
}

TEST(AdvanceUntil, MidLifeRunsMatchPerTickStepping) {
  // advance_state from random mid-life states (any charge, height,
  // recovery timer and discharge clock a live battery can hold) against
  // per-tick step(). A run of draws ends at the largest draw count before
  // the next recovery fire, the death draw or the step budget; the draws
  // cover every way that search can end, and the test checks that each
  // one came up.
  std::vector<std::size_t> seen(7, 0);
  for (const auto& params : {battery_b1(), battery_b2()}) {
    const discretization d{params};
    std::mt19937_64 rng{0xd1ff + static_cast<std::uint64_t>(d.total_units())};
    const auto uniform = [&rng](std::int64_t lo, std::int64_t hi) {
      return std::uniform_int_distribution<std::int64_t>{lo, hi}(rng);
    };
    for (int trial = 0; trial < 4000; ++trial) {
      const load::draw_rate rate{uniform(1, 3), uniform(1, 7)};
      const discrete_state s = random_live_state(d, rate, rng);
      const std::int64_t max_steps = uniform(1, uniform(0, 1) ? 40 : 3000);
      ++seen[static_cast<std::size_t>(classify(d, s, rate, max_steps))];

      discrete_state fast = s;
      discrete_state ref = s;
      const advance_result a = detail::advance_state(d, fast, rate, max_steps);
      ASSERT_GE(a.steps, 1);
      ASSERT_LE(a.steps, max_steps);
      std::int64_t ticks = 0;
      step_event ev = step_event::none;
      while (ticks < max_steps && ev != step_event::died) {
        ev = step(d, ref, rate);
        ++ticks;
      }
      ASSERT_EQ(a.steps, ticks) << "trial " << trial;
      ASSERT_EQ(a.event == step_event::died, ev == step_event::died);
      ASSERT_EQ(fast, ref) << "trial " << trial;
    }
  }
  for (std::size_t k = 0; k < seen.size(); ++k) {
    EXPECT_GT(seen[k], 0u) << "first-run case " << k << " never drawn";
  }
}

TEST(AdvanceUntil, IdleAdvanceMatchesPerTickRecovery) {
  const discretization d = paper_disc_b1();
  discrete_state fast = full_discrete(d);
  fast.n = 300;
  fast.m = 45;
  fast.recovery_elapsed = 3;
  discrete_state ref = fast;
  const std::int64_t steps = 50'000;
  const advance_result a = detail::advance_state(d, fast, {0, 0}, steps);
  EXPECT_EQ(a.steps, steps);
  EXPECT_EQ(a.event, step_event::none);
  for (std::int64_t i = 0; i < steps; ++i) step(d, ref, {0, 0});
  EXPECT_EQ(fast, ref);
  EXPECT_LT(fast.m, 45);  // recovery actually ran
}

TEST(DiscreteLifetime, MatchesPerTickReference) {
  // discrete_lifetime now runs on the event-horizon kernel; this is the
  // old per-tick loop, kept as the executable specification.
  const auto per_tick = [](const discretization& d, const load::trace& t) {
    discrete_state s = full_discrete(d);
    load::epoch_cursor cursor{t};
    std::int64_t step_count = 0;
    const double t_step = d.steps().time_step_min;
    for (;;) {
      const load::epoch& e = cursor.current();
      const load::draw_rate rate =
          e.current_a > 0 ? load::rate_for(e.current_a, d.steps())
                          : load::draw_rate{0, 0};
      const auto epoch_steps =
          static_cast<std::int64_t>(std::llround(e.duration_min / t_step));
      s.discharge_elapsed = 0;
      for (std::int64_t i = 0; i < epoch_steps; ++i) {
        ++step_count;
        if (step(d, s, rate) == step_event::died) {
          return static_cast<double>(step_count) * t_step;
        }
      }
      cursor.advance();
    }
  };
  for (const auto load : {load::test_load::cl_alt, load::test_load::ils_alt,
                          load::test_load::ils_r1}) {
    const load::trace t = load::paper_trace(load);
    for (const auto& params : {battery_b1(), battery_b2()}) {
      const discretization d{params};
      EXPECT_EQ(discrete_lifetime(d, t), per_tick(d, t)) << load::name(load);
    }
  }
}

// --- bank::advance_all against the per-tick reference step_all. ---

/// Random alternation of jobs (random active battery, random rate), idle
/// phases and go_on discharge-clock resets — the protocol shapes the
/// simulator drives bank::advance_all with.
struct segment {
  std::size_t active;  // bank::idle for a rest phase
  load::draw_rate rate;
  std::int64_t steps;
  bool reset_clock;
};

std::vector<segment> random_plan(std::mt19937_64& rng, std::size_t batteries,
                                 std::size_t count) {
  std::uniform_int_distribution<int> units{1, 3};
  std::uniform_int_distribution<int> period{1, 7};
  std::uniform_int_distribution<std::int64_t> len{1, 700};
  std::uniform_int_distribution<std::size_t> pick{0, batteries - 1};
  std::uniform_int_distribution<int> kind{0, 4};
  std::vector<segment> plan;
  plan.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const bool idle = kind(rng) == 0;
    plan.push_back({idle ? bank::idle : pick(rng),
                    idle ? load::draw_rate{0, 0}
                         : load::draw_rate{units(rng), period(rng)},
                    len(rng), kind(rng) == 1});
  }
  return plan;
}

TEST(BankAdvanceAll, BitIdenticalToStepAll) {
  const bank bk{{battery_b1(), battery_b2(), battery_b1()}};
  std::mt19937_64 rng{1};
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<discrete_state> fast = bk.full_states();
    std::vector<discrete_state> ref = bk.full_states();
    for (const segment& seg : random_plan(rng, bk.size(), 60)) {
      const bool active_usable =
          seg.active == bank::idle || !ref[seg.active].empty;
      if (!active_usable) continue;
      if (seg.reset_clock && seg.active != bank::idle) {
        fast[seg.active].discharge_elapsed = 0;
        ref[seg.active].discharge_elapsed = 0;
      }
      const advance_result a =
          bk.advance_all(fast, seg.active, seg.rate, seg.steps);
      ASSERT_GE(a.steps, 1);
      ASSERT_LE(a.steps, seg.steps);
      for (std::int64_t i = 1; i <= a.steps; ++i) {
        const step_event ev = step_all(bk, ref, seg.active, seg.rate);
        if (ev == step_event::died) {
          ASSERT_EQ(i, a.steps) << "per-tick death before advance return";
          ASSERT_EQ(a.event, step_event::died);
        }
      }
      if (a.event != step_event::died) {
        ASSERT_EQ(a.steps, seg.steps);
      }
      ASSERT_EQ(fast, ref) << "trial " << trial;
    }
  }
}

/// Runs `seg` from `from` through advance_all, checked against step_all
/// tick by tick; returns the advanced states.
std::vector<discrete_state> checked_advance(
    const bank& bk, const std::vector<discrete_state>& from,
    const segment& seg) {
  std::vector<discrete_state> fast = from;
  std::vector<discrete_state> ref = from;
  const advance_result a = bk.advance_all(fast, seg.active, seg.rate,
                                          seg.steps);
  std::int64_t ticks = 0;
  step_event ev = step_event::none;
  while (ticks < seg.steps && ev != step_event::died) {
    ev = step_all(bk, ref, seg.active, seg.rate);
    ++ticks;
  }
  EXPECT_EQ(a.steps, ticks);
  EXPECT_EQ(a.event == step_event::died, ev == step_event::died);
  EXPECT_EQ(fast, ref);
  return fast;
}

/// The largest (1000 - c) m_j + c u j over the draws j of a `len`-step
/// window of `rate` from `s`, stepped per tick with n lifted to the full
/// capacity; -1 when the window has no draw. Fails the test if the
/// battery dies even at full charge.
std::int64_t window_need(const discretization& d, discrete_state s,
                         const load::draw_rate& rate, std::int64_t len) {
  s.n = d.total_units();
  const std::int64_t c = d.c_permille();
  std::int64_t need = -1;
  std::int64_t draws = 0;
  for (std::int64_t i = 0; i < len; ++i) {
    const step_event ev = step(d, s, rate);
    EXPECT_NE(ev, step_event::died);
    if (ev == step_event::drew) {
      ++draws;
      need = std::max(need, (1000 - c) * s.m + c * rate.units * draws);
    }
  }
  return need;
}

TEST(BankAdvanceAll, MemoHitsMatchStepAll) {
  // Two banks whose batteries differ only in k' and c (the second's larger
  // c keeps every state the first reaches alive in both), on one thread.
  // Every segment runs from one snapshot on the first bank, on the second
  // and on the first again: the second call on a bank hits the entry the
  // first recorded, and the other bank's call has the very same key but
  // for the discretization. Every result is checked against step_all.
  const battery_parameters pa = battery_b1();
  const battery_parameters pb{pa.capacity_amin, 0.25, 0.3};
  std::optional<bank> a{std::in_place,
                        std::vector<battery_parameters>{pa, pa, pa}};
  const bank b{{pb, pb, pb}};
  std::mt19937_64 rng{23};
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<std::pair<std::vector<discrete_state>, segment>> done;
    std::vector<discrete_state> states = a->full_states();
    for (const segment& seg : random_plan(rng, a->size(), 50)) {
      if (seg.active != bank::idle && states[seg.active].empty) continue;
      if (seg.reset_clock && seg.active != bank::idle) {
        states[seg.active].discharge_elapsed = 0;
      }
      const std::vector<discrete_state> first =
          checked_advance(*a, states, seg);
      (void)checked_advance(b, states, seg);
      EXPECT_EQ(checked_advance(*a, states, seg), first);
      if (HasFailure()) return;
      done.emplace_back(states, seg);
      states = first;
    }
    // Rebuild the first bank with the second's parameters: its
    // discretization may land at the old one's address, and replaying
    // the old bank's windows must not hit the old bank's entries.
    a.reset();
    a.emplace(std::vector<battery_parameters>{pb, pb, pb});
    for (const auto& [from, seg] : done) (void)checked_advance(*a, from, seg);
    if (HasFailure()) return;
    a.reset();
    a.emplace(std::vector<battery_parameters>{pa, pa, pa});
  }

  // The survival bound at its edge. c = 0.2 makes every need_j a multiple
  // of c (1000 m_j is), so there is an n with c n == need exactly: a
  // recorded window must not apply there (its fatal draw lands inside
  // the window), and must apply at need / c + 1.
  const battery_parameters pc{pa.capacity_amin, 0.2, pa.k_prime};
  const bank c_bank{{pc, pc}};
  const discretization& d = c_bank.disc(0);
  const load::draw_rate rate{2, 3};
  const std::int64_t len = 90;
  for (const discrete_state base :
       {discrete_state{0, 7, 5, 1, false}, discrete_state{0, 30, 0, 2, false},
        discrete_state{0, 1, 0, 0, false}}) {
    const std::int64_t need = window_need(d, base, rate, len);
    ASSERT_GT(need, 0);
    ASSERT_EQ(need % d.c_permille(), 0);
    const std::int64_t edge = need / d.c_permille();
    for (const std::int64_t n :
         {edge, edge + 1, edge, edge - 5, edge + 1, edge - 20}) {
      discrete_state s = base;
      s.n = n;
      ASSERT_GT(d.available_permille(s.n, s.m), 0) << n;
      // Record the window at full charge, then replay it at n.
      std::vector<discrete_state> full = c_bank.full_states();
      full[0] = base;
      full[0].n = d.total_units();
      (void)checked_advance(c_bank, full, {0, rate, len, false});
      std::vector<discrete_state> at_n = c_bank.full_states();
      at_n[0] = s;
      const std::vector<discrete_state> out =
          checked_advance(c_bank, at_n, {0, rate, len, false});
      EXPECT_EQ(out[0].empty, n <= edge) << "n " << n << ", need " << need;
    }
  }
}

// --- TA-KiBaM validation columns (Tables 3 and 4, dKiBaM). ---

struct ta_case {
  load::test_load load;
  double b1_lifetime;  // Table 3, TA-KiBaM column
  double b2_lifetime;  // Table 4, TA-KiBaM column
};

const ta_case k_ta_cases[] = {
    {load::test_load::cl_250, 4.56, 12.28},
    {load::test_load::cl_500, 2.04, 4.54},
    {load::test_load::cl_alt, 2.60, 6.52},
    {load::test_load::ils_250, 10.84, 44.80},
    {load::test_load::ils_500, 4.32, 10.84},
    {load::test_load::ils_alt, 4.82, 16.94},
    {load::test_load::ils_r1, 4.74, 22.74},
    {load::test_load::ils_r2, 4.74, 14.84},
    {load::test_load::ill_250, 21.88, 84.92},
    {load::test_load::ill_500, 6.56, 21.88},
};

class DiscreteLifetime : public testing::TestWithParam<ta_case> {};

// Our per-step ordering reproduces most rows exactly; the published model's
// unspecified transition ordering can shift a death by one discharge tick,
// so the tolerance is one tick (0.04 min at 250 mA) — see EXPERIMENTS.md.
TEST_P(DiscreteLifetime, MatchesTaKibamB1WithinOneTick) {
  const ta_case& c = GetParam();
  const discretization d = paper_disc_b1();
  const double lt = discrete_lifetime(d, load::paper_trace(c.load));
  EXPECT_NEAR(lt, c.b1_lifetime, 0.045) << load::name(c.load);
}

TEST_P(DiscreteLifetime, MatchesTaKibamB2WithinOneTick) {
  const ta_case& c = GetParam();
  const discretization d{battery_b2()};
  const double lt = discrete_lifetime(d, load::paper_trace(c.load));
  EXPECT_NEAR(lt, c.b2_lifetime, 0.045) << load::name(c.load);
}

TEST_P(DiscreteLifetime, WithinOnePercentOfAnalytic) {
  // The paper's own validation criterion (Section 5): the discretized
  // model deviates from the analytic KiBaM by at most ~1%.
  const ta_case& c = GetParam();
  for (const auto& battery : {battery_b1(), battery_b2()}) {
    const discretization d{battery};
    const load::trace t = load::paper_trace(c.load);
    const double discrete = discrete_lifetime(d, t);
    const double analytic = lifetime(battery, t);
    EXPECT_NEAR(discrete, analytic, 0.012 * analytic) << load::name(c.load);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperLoads, DiscreteLifetime, testing::ValuesIn(k_ta_cases),
    [](const testing::TestParamInfo<ta_case>& pinfo) {
      std::string n = load::name(pinfo.param.load);
      for (char& ch : n) {
        if (ch == ' ') ch = '_';
      }
      return n;
    });

TEST(DiscreteLifetimeRefinement, FinerGridReducesError) {
  const battery_parameters p = battery_b1();
  const load::trace t = load::paper_trace(load::test_load::cl_250);
  const double analytic = lifetime(p, t);
  const double coarse = discrete_lifetime(
      discretization{p, {0.01, 0.05}}, t);
  const double fine = discrete_lifetime(
      discretization{p, {0.005, 0.005}}, t);
  EXPECT_LE(std::abs(fine - analytic), std::abs(coarse - analytic) + 1e-9);
  EXPECT_NEAR(fine, analytic, 0.01 * analytic);
}

TEST(Discretization, RejectsNonIntegralCapacity) {
  battery_parameters p = battery_b1();
  p.capacity_amin = 5.5037;  // not a multiple of 0.01
  EXPECT_THROW(discretization{p}, bsched::error);
}

}  // namespace
}  // namespace bsched::kibam
