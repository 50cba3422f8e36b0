#include <gtest/gtest.h>

#include <algorithm>

#include "lamp_fixture.hpp"
#include "pta/semantics.hpp"
#include "util/error.hpp"

namespace bsched::pta {
namespace {

using testutil::make_lamp;

bool has_action(const std::vector<transition>& ts) {
  return std::ranges::any_of(
      ts, [](const transition& t) { return !t.edges.empty(); });
}

const transition* find_delay(const std::vector<transition>& ts) {
  const auto it = std::ranges::find_if(
      ts, [](const transition& t) { return t.edges.empty(); });
  return it == ts.end() ? nullptr : &*it;
}

TEST(Semantics, InitialStateIsWellFormed) {
  const auto m = make_lamp();
  const semantics sem{m.net};
  const dstate s = sem.initial();
  EXPECT_EQ(s.locations.size(), 2u);
  EXPECT_EQ(s.locations[m.lamp], m.off);
  EXPECT_EQ(s.clocks.size(), 1u);
  EXPECT_EQ(s.clocks[0], 0);  // initial() throws unless invariants hold
}

TEST(Semantics, BinarySyncFiresJointly) {
  const auto m = make_lamp();
  const semantics sem{m.net};
  const dstate s = sem.initial();
  const auto succ = sem.successors(s);
  // From off: the press handshake plus a unit delay.
  ASSERT_TRUE(has_action(succ));
  const auto action = std::ranges::find_if(
      succ, [](const transition& t) { return !t.edges.empty(); });
  EXPECT_EQ(action->edges.size(), 2u);  // sender + receiver
  EXPECT_EQ(action->target.locations[m.lamp], m.low);
  EXPECT_EQ(action->cost, 50);  // switch-on cost update
  EXPECT_EQ(action->target.vars[m.presses.slot], 1);
}

TEST(Semantics, DelayAccruesLocationRates) {
  const auto m = make_lamp();
  const semantics sem{m.net};
  // Drive to `low`, then delay once: rate 10.
  dstate s = sem.initial();
  const auto succ = sem.successors(s);
  const auto action = std::ranges::find_if(
      succ, [](const transition& t) { return !t.edges.empty(); });
  ASSERT_NE(action, succ.end());
  s = action->target;
  const auto after = sem.successors(s);
  const transition* delay = find_delay(after);
  ASSERT_NE(delay, nullptr);
  EXPECT_EQ(delay->delay, 1);
  EXPECT_EQ(delay->cost, 10);
  EXPECT_EQ(delay->target.clocks[0], 1);
}

TEST(Semantics, InvariantBlocksDelayAtDeadline) {
  const auto m = make_lamp();
  const semantics sem{m.net};
  dstate s = sem.initial();
  // Enter low, then delay 10 times; the 11th delay must be rejected.
  const auto first = sem.successors(s);
  s = std::ranges::find_if(first, [](const transition& t) {
        return !t.edges.empty();
      })->target;
  for (int i = 0; i < 10; ++i) {
    const auto succ = sem.successors(s);
    const transition* delay = find_delay(succ);
    ASSERT_NE(delay, nullptr) << "delay blocked at step " << i;
    s = delay->target;
  }
  const auto at_deadline = sem.successors(s);
  EXPECT_EQ(find_delay(at_deadline), nullptr);
  // The automatic switch-off is the only way forward.
  ASSERT_TRUE(has_action(at_deadline));
}

TEST(Semantics, GuardPartitionsByClock) {
  const auto m = make_lamp();
  const semantics sem{m.net};
  dstate s = sem.initial();
  s = sem.successors(s)[0].edges.empty() ? s : sem.successors(s)[0].target;
  // Ensure we are in `low` (take the action transition explicitly).
  if (s.locations[m.lamp] != m.low) {
    const auto succ = sem.successors(sem.initial());
    s = std::ranges::find_if(succ, [](const transition& t) {
          return !t.edges.empty();
        })->target;
  }
  // At y = 6 a press must switch off, not to bright.
  for (int i = 0; i < 6; ++i) s = *&find_delay(sem.successors(s))->target;
  const auto succ = sem.successors(s);
  for (const transition& t : succ) {
    if (t.edges.empty()) continue;
    EXPECT_EQ(t.target.locations[m.lamp], m.off);
  }
}

TEST(Semantics, DelayAccelerationSkipsQuietStretch) {
  // A one-automaton model: location with invariant x <= 100 and an edge
  // guarded x >= 100; acceleration must produce a single 100-step delay.
  network net;
  const clock_id x = net.add_clock("x", 200);
  const automaton_id aid = net.add_automaton("waiter");
  automaton& a = net.at(aid);
  const loc_id w = a.add_location(
      {"w", false, {clock_constraint{x, cmp::le, lit(100)}}, {}});
  const loc_id done = a.add_location({"done", false, {}, {}});
  a.set_initial(w);
  a.add_edge({w, done, {clock_constraint{x, cmp::ge, lit(100)}},
              {}, npos, sync_dir::none, {}, {}, {}, {}});

  const semantics sem{net};
  const auto succ = sem.successors(sem.initial());
  ASSERT_EQ(succ.size(), 1u);
  EXPECT_EQ(succ[0].delay, 100);
  const auto after = sem.successors(succ[0].target);
  ASSERT_TRUE(has_action(after));
}

TEST(Semantics, CommittedLocationBlocksDelayAndOthers) {
  // Two automata: A enters a committed location; B has an always-enabled
  // self-loop. While A is committed, only A's edge may fire and no delay.
  network net;
  (void)net.add_clock("x", 10);
  const automaton_id a_id = net.add_automaton("A");
  automaton& a = net.at(a_id);
  const loc_id a0 = a.add_location({"a0", false, {}, {}});
  const loc_id mid = a.add_location({"mid", true, {}, {}});
  const loc_id a1 = a.add_location({"a1", false, {}, {}});
  a.set_initial(a0);
  a.add_edge({a0, mid, {}, {}, npos, sync_dir::none, {}, {}, {}, {}});
  a.add_edge({mid, a1, {}, {}, npos, sync_dir::none, {}, {}, {}, {}});

  const automaton_id b_id = net.add_automaton("B");
  automaton& b = net.at(b_id);
  const loc_id b0 = b.add_location({"b0", false, {}, {}});
  b.set_initial(b0);
  b.add_edge({b0, b0, {}, {}, npos, sync_dir::none, {}, {}, {}, {}});

  const semantics sem{net};
  dstate s = sem.initial();
  // Step into the committed location.
  const auto succ0 = sem.successors(s);
  const auto into_mid = std::ranges::find_if(
      succ0, [&](const transition& t) {
        return !t.edges.empty() && t.target.locations[a_id] == mid;
      });
  ASSERT_NE(into_mid, succ0.end());
  s = into_mid->target;
  const auto succ1 = sem.successors(s);
  ASSERT_FALSE(succ1.empty());
  for (const transition& t : succ1) {
    ASSERT_FALSE(t.edges.empty()) << "delay is forbidden while committed";
    EXPECT_EQ(t.edges[0].automaton, a_id)
        << "only the committed automaton may move";
  }
}

TEST(Semantics, BroadcastReachesAllReadyReceivers) {
  // One sender, two receivers, one of them guarded off.
  network net;
  (void)net.add_clock("x", 10);
  const chan_id ping = net.add_channel("ping", /*broadcast=*/true);
  const var_ref gate = net.add_var("gate", 0);

  const automaton_id s_id = net.add_automaton("sender");
  automaton& snd = net.at(s_id);
  const loc_id s0 = snd.add_location({"s0", false, {}, {}});
  const loc_id s1 = snd.add_location({"s1", false, {}, {}});
  snd.set_initial(s0);
  snd.add_edge({s0, s1, {}, {}, ping, sync_dir::send, {}, {}, {}, {}});

  std::vector<automaton_id> recv_ids;
  std::vector<loc_id> hit;
  for (int i = 0; i < 2; ++i) {
    const automaton_id r_id =
        net.add_automaton("recv" + std::to_string(i));
    automaton& r = net.at(r_id);
    const loc_id r0 = r.add_location({"r0", false, {}, {}});
    const loc_id r1 = r.add_location({"r1", false, {}, {}});
    r.set_initial(r0);
    // Receiver 1 only listens when gate != 0.
    const expr guard = i == 0 ? expr{} : (expr{gate} != lit(0));
    r.add_edge({r0, r1, {}, guard, ping, sync_dir::receive, {}, {}, {}, {}});
    recv_ids.push_back(r_id);
    hit.push_back(r1);
  }

  const semantics sem{net};
  const auto succ = sem.successors(sem.initial());
  const auto bc = std::ranges::find_if(
      succ, [](const transition& t) { return !t.edges.empty(); });
  ASSERT_NE(bc, succ.end());
  // Sender fires; receiver 0 joins; gated receiver 1 stays.
  EXPECT_EQ(bc->target.locations[s_id], s1);
  EXPECT_EQ(bc->target.locations[recv_ids[0]], hit[0]);
  EXPECT_NE(bc->target.locations[recv_ids[1]], hit[1]);
}

TEST(Semantics, ClockCapClampsGrowth) {
  // A self-loop guarded x >= 3 keeps the idler live, so delays past the
  // cap stay single steps and the clock must stop at 5.
  network net;
  const clock_id x = net.add_clock("x", 5);
  const automaton_id aid = net.add_automaton("idler");
  automaton& a = net.at(aid);
  const loc_id l = a.add_location({"l", false, {}, {}});
  a.set_initial(l);
  a.add_edge({l, l, {clock_constraint{x, cmp::ge, lit(3)}},
              {}, npos, sync_dir::none, {}, {}, {}, {}});

  const semantics sem{net};
  dstate s = sem.initial();
  for (int i = 0; i < 12; ++i) {
    const auto succ = sem.successors(s);
    const transition* delay = find_delay(succ);
    ASSERT_NE(delay, nullptr) << "delay blocked at step " << i;
    s = delay->target;
  }
  EXPECT_EQ(s.clocks[0], 5);  // clamped at the cap
}

TEST(Semantics, IdlerWithNoEdgesIsATimeDivergentDeadEnd) {
  network net;
  (void)net.add_clock("x", 5);
  const automaton_id aid = net.add_automaton("idler");
  automaton& a = net.at(aid);
  a.set_initial(a.add_location({"l", false, {}, {}}));

  const semantics sem{net};
  EXPECT_TRUE(sem.successors(sem.initial()).empty());
}

TEST(Semantics, PricedIdlerIsATimeDivergentDeadEnd) {
  // Idling at the clock cap only adds cost and never enables an edge: no
  // successor, rather than a delay run that spins to its bound.
  network net;
  (void)net.add_clock("x", 5);
  const automaton_id aid = net.add_automaton("idler");
  automaton& a = net.at(aid);
  a.set_initial(a.add_location({"l", false, {}, lit(3)}));

  const semantics sem{net};
  EXPECT_TRUE(sem.successors(sem.initial()).empty());
}

TEST(Semantics, DescribeNamesTheParticipants) {
  const auto m = make_lamp();
  const semantics sem{m.net};
  const auto succ = sem.successors(sem.initial());
  const auto action = std::ranges::find_if(
      succ, [](const transition& t) { return !t.edges.empty(); });
  ASSERT_NE(action, succ.end());
  const std::string desc = action->describe(m.net);
  EXPECT_NE(desc.find("press"), std::string::npos);
  EXPECT_NE(desc.find("lamp"), std::string::npos);
}

}  // namespace
}  // namespace bsched::pta
