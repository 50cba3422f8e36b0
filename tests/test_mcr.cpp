#include <gtest/gtest.h>

#include "lamp_fixture.hpp"
#include "pta/mcr.hpp"
#include "util/error.hpp"

namespace bsched::pta {
namespace {

using testutil::make_lamp;

TEST(Mcr, CheapestPathToBright) {
  // Reaching bright requires press (50) + press within y < 5; delaying in
  // `low` costs 10/step, so the optimum presses immediately: cost 50.
  const auto m = make_lamp();
  const semantics sem{m.net};
  const auto r = min_cost_reach(sem, location_goal(m.lamp, m.bright));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->cost, 50);
  EXPECT_EQ(r->elapsed_steps, 0);
}

TEST(Mcr, AvoidsBrightWhenOffIsTheGoal) {
  // Goal: lamp off again after >= 2 presses. The cheap route skips bright
  // entirely: press (50), wait 5 in low (y >= 5, cost 50), press -> off.
  const auto m = make_lamp();
  const semantics sem{m.net};
  const automaton_id lamp = m.lamp;
  const loc_id off = m.off;
  const std::size_t presses_slot = m.presses.slot;
  const auto goal = [lamp, off, presses_slot](const dstate& s) {
    return s.locations[lamp] == off && s.vars[presses_slot] >= 2;
  };
  const auto r = min_cost_reach(sem, goal);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->cost, 100);
  EXPECT_EQ(r->elapsed_steps, 5);
}

TEST(Mcr, ExploitsCheapLocationBeforeExpensiveOne) {
  // Goal: lamp off again after having shone brightly. Burning costs
  // 10/step in low and 20/step in bright, and the auto-off fires at the
  // y = 10 deadline, so the optimum lingers in cheap `low` as long as the
  // y < 5 guard allows: press (50), wait 4 (40), press (bright), wait 6
  // to the deadline (120) — total 210.
  const auto m = make_lamp();
  const semantics sem{m.net};
  const automaton_id lamp = m.lamp;
  const loc_id off = m.off;
  const std::size_t brights_slot = m.brights.slot;
  const auto goal = [lamp, off, brights_slot](const dstate& s) {
    return s.locations[lamp] == off && s.vars[brights_slot] >= 1;
  };
  const auto r = min_cost_reach(sem, goal);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->cost, 210);
  EXPECT_EQ(r->elapsed_steps, 10);
}

TEST(Mcr, TraceReconstructionIsConsistent) {
  const auto m = make_lamp();
  const semantics sem{m.net};
  const auto r = min_cost_reach(sem, location_goal(m.lamp, m.bright));
  ASSERT_TRUE(r.has_value());
  std::int64_t cost = 0, steps = 0;
  for (const trace_step& ts : r->trace) {
    cost += ts.cost;
    steps += ts.delay;
    EXPECT_FALSE(ts.description.empty());
  }
  EXPECT_EQ(cost, r->cost);
  EXPECT_EQ(steps, r->elapsed_steps);
}

TEST(Mcr, UnreachableGoalReturnsNullopt) {
  // A lamp whose `bright` guard is impossible (y < 0).
  auto m = make_lamp();
  network net;  // rebuild with an impossible guard
  {
    const clock_id y = net.add_clock("y", 11);
    const chan_id press = net.add_channel("press");
    const automaton_id lamp = net.add_automaton("lamp");
    automaton& a = net.at(lamp);
    const loc_id off = a.add_location({"off", false, {}, {}});
    const loc_id low = a.add_location(
        {"low", false, {clock_constraint{y, cmp::le, lit(10)}}, {}});
    const loc_id bright = a.add_location({"bright", false, {}, {}});
    a.set_initial(off);
    a.add_edge({off, low, {}, {}, press, sync_dir::receive, {}, {y}, {}, {}});
    a.add_edge({low, bright, {clock_constraint{y, cmp::lt, lit(0)}},
                {}, press, sync_dir::receive, {}, {}, {}, {}});
    a.add_edge({low, off, {clock_constraint{y, cmp::ge, lit(10)}},
                {}, npos, sync_dir::none, {}, {}, {}, {}});
    const automaton_id user = net.add_automaton("user");
    automaton& u = net.at(user);
    const loc_id idle = u.add_location({"idle", false, {}, {}});
    u.set_initial(idle);
    u.add_edge({idle, idle, {}, {}, press, sync_dir::send, {}, {}, {}, {}});

    const semantics sem{net};
    const auto r = min_cost_reach(sem, location_goal(lamp, bright));
    EXPECT_FALSE(r.has_value());
  }
}

TEST(Mcr, StateBudgetEnforced) {
  const auto m = make_lamp();
  const semantics sem{m.net};
  mcr_options opts;
  opts.max_states = 1;
  const std::size_t presses_slot = m.presses.slot;
  const auto goal = [presses_slot](const dstate& s) {
    return s.vars[presses_slot] >= 50;
  };
  EXPECT_THROW(min_cost_reach(sem, goal, opts), bsched::error);
}

TEST(Mcr, GoalInInitialStateIsFree) {
  const auto m = make_lamp();
  const semantics sem{m.net};
  const auto r = min_cost_reach(sem, location_goal(m.lamp, m.off));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->cost, 0);
  EXPECT_TRUE(r->trace.empty());
}

TEST(Mcr, TraceDisabledSkipsReconstruction) {
  const auto m = make_lamp();
  const semantics sem{m.net};
  mcr_options opts;
  opts.record_trace = false;
  const auto r =
      min_cost_reach(sem, location_goal(m.lamp, m.bright), opts);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->trace.empty());
  EXPECT_EQ(r->cost, 50);
}

TEST(Mcr, DeadlineReachability) {
  // One clock x; location `wait` with invariant x <= inv and an edge to
  // `hit` guarded x >= k (reachable iff k <= inv) or x > k (reachable iff
  // k < inv).
  for (const std::int64_t inv : {2, 3, 5}) {
    for (std::int64_t k = 1; k <= 6; ++k) {
      for (const bool strict : {false, true}) {
        network net;
        const clock_id x = net.add_clock("x", 10);
        const automaton_id aid = net.add_automaton("a");
        automaton& a = net.at(aid);
        const loc_id wait = a.add_location(
            {"wait", false, {clock_constraint{x, cmp::le, lit(inv)}}, {}});
        const loc_id hit = a.add_location({"hit", false, {}, {}});
        a.set_initial(wait);
        a.add_edge({wait, hit,
                    {clock_constraint{x, strict ? cmp::gt : cmp::ge, lit(k)}},
                    {}, npos, sync_dir::none, {}, {}, {}, {}});
        const semantics sem{net};
        const auto r = min_cost_reach(sem, location_goal(aid, hit));
        EXPECT_EQ(r.has_value(), strict ? k < inv : k <= inv)
            << "inv=" << inv << " k=" << k << " strict=" << strict;
      }
    }
  }
}

TEST(Mcr, ClockDifferenceAcrossResetIsRespected) {
  // y is reset when leaving `first` at x = 2, so y >= 3 implies x >= 5,
  // contradicting the x <= 4 half of the guard into `hit`.
  network net;
  const clock_id x = net.add_clock("x", 20);
  const clock_id y = net.add_clock("y", 20);
  const automaton_id aid = net.add_automaton("a");
  automaton& a = net.at(aid);
  const loc_id first = a.add_location(
      {"first", false, {clock_constraint{x, cmp::le, lit(2)}}, {}});
  const loc_id second = a.add_location({"second", false, {}, {}});
  const loc_id hit = a.add_location({"hit", false, {}, {}});
  a.set_initial(first);
  a.add_edge({first, second, {clock_constraint{x, cmp::ge, lit(2)}},
              {}, npos, sync_dir::none, {}, {y}, {}, {}});
  a.add_edge({second, hit,
              {clock_constraint{y, cmp::ge, lit(3)},
               clock_constraint{x, cmp::le, lit(4)}},
              {}, npos, sync_dir::none, {}, {}, {}, {}});
  const semantics sem{net};
  EXPECT_FALSE(min_cost_reach(sem, location_goal(aid, hit)).has_value());
}

TEST(Mcr, VariableSetOverAChannelGatesAnEdge) {
  // `a` may only enter `hit` once `b` has armed it through channel `go`.
  network net;
  (void)net.add_clock("x", 5);
  const chan_id go = net.add_channel("go");
  const var_ref armed = net.add_var("armed", 0);
  const automaton_id aid = net.add_automaton("a");
  automaton& a = net.at(aid);
  const loc_id w = a.add_location({"w", false, {}, {}});
  const loc_id hit = a.add_location({"hit", false, {}, {}});
  a.set_initial(w);
  a.add_edge({w, w, {}, {}, go, sync_dir::receive,
              {{armed.lv(), lit(1)}}, {}, {}, {}});
  a.add_edge({w, hit, {}, expr{armed} == lit(1), npos, sync_dir::none,
              {}, {}, {}, {}});
  const automaton_id bid = net.add_automaton("b");
  automaton& b = net.at(bid);
  const loc_id s = b.add_location({"s", false, {}, {}});
  b.set_initial(s);
  b.add_edge({s, s, {}, {}, go, sync_dir::send, {}, {}, {}, {}});

  const semantics sem{net};
  const auto r = min_cost_reach(sem, location_goal(aid, hit));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->trace.size(), 2u);
}

}  // namespace
}  // namespace bsched::pta
