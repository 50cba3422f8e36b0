#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "kibam/bank.hpp"
#include "kibam/discrete.hpp"
#include "load/jobs.hpp"
#include "opt/policies.hpp"
#include "opt/search.hpp"
#include "sched/policy.hpp"
#include "sched/simulator.hpp"
#include "support/drain_bound.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bsched::opt {
namespace {

kibam::discretization disc_b1() {
  return kibam::discretization{kibam::battery_b1()};
}

std::string decision_digits(const std::vector<std::size_t>& decisions) {
  std::string out;
  for (const std::size_t b : decisions) {
    out += static_cast<char>('0' + b);
  }
  return out;
}

// --- Table 5, optimal column. ---

struct optimal_case {
  load::test_load load;
  double optimal;  // minutes, Table 5
};

const optimal_case k_optimal[] = {
    {load::test_load::cl_250, 12.04},  {load::test_load::cl_500, 4.58},
    {load::test_load::cl_alt, 6.48},   {load::test_load::ils_250, 40.80},
    {load::test_load::ils_500, 10.48}, {load::test_load::ils_alt, 16.91},
    {load::test_load::ils_r1, 20.52},  {load::test_load::ils_r2, 14.54},
    {load::test_load::ill_250, 78.96}, {load::test_load::ill_500, 18.68},
};

class OptimalColumn : public testing::TestWithParam<optimal_case> {};

TEST_P(OptimalColumn, MatchesPaperWithinTicks) {
  const optimal_case& c = GetParam();
  const auto d = disc_b1();
  const optimal_result r =
      optimal_schedule(d, 2, load::paper_trace(c.load));
  // Two deaths, each within ~1 tick of the published Cora runs.
  EXPECT_NEAR(r.lifetime_min, c.optimal, 0.09) << load::name(c.load);
}

INSTANTIATE_TEST_SUITE_P(
    PaperLoads, OptimalColumn, testing::ValuesIn(k_optimal),
    [](const testing::TestParamInfo<optimal_case>& pinfo) {
      std::string n = load::name(pinfo.param.load);
      for (char& ch : n) {
        if (ch == ' ') ch = '_';
      }
      return n;
    });

TEST(Optimal, DominatesEveryDeterministicPolicy) {
  const auto d = disc_b1();
  for (const load::test_load l : load::all_test_loads()) {
    const load::trace t = load::paper_trace(l);
    const double best = optimal_schedule(d, 2, t).lifetime_min;
    for (auto make :
         {sched::sequential, sched::round_robin, sched::best_of_n,
          sched::worst_of_n}) {
      const auto pol = make();
      const double lt = sched::simulate_discrete(d, 2, t, *pol).lifetime_min;
      EXPECT_GE(best, lt - 1e-9)
          << pol->name() << " beats optimal on " << load::name(l);
    }
  }
}

TEST(Optimal, ReplayReproducesTheSearchLifetime) {
  const auto d = disc_b1();
  for (const load::test_load l :
       {load::test_load::ils_alt, load::test_load::cl_alt,
        load::test_load::ils_r2}) {
    const load::trace t = load::paper_trace(l);
    const optimal_result r = optimal_schedule(d, 2, t);
    const auto replay = sched::fixed_schedule(r.decisions);
    const double replayed =
        sched::simulate_discrete(d, 2, t, *replay).lifetime_min;
    EXPECT_NEAR(replayed, r.lifetime_min, 1e-9) << load::name(l);
  }
}

TEST(Optimal, HeadlineImprovementOverRoundRobin) {
  // The paper's headline: on ILs alt the optimal schedule beats round
  // robin by ~32% (Table 5: 12.82 -> 16.91, +31.9%).
  const auto d = disc_b1();
  const load::trace t = load::paper_trace(load::test_load::ils_alt);
  const auto rr = sched::round_robin();
  const double rr_lt = sched::simulate_discrete(d, 2, t, *rr).lifetime_min;
  const double opt_lt = optimal_schedule(d, 2, t).lifetime_min;
  const double gain = 100.0 * (opt_lt - rr_lt) / rr_lt;
  EXPECT_NEAR(gain, 31.9, 1.5);
}

TEST(Optimal, PruningDoesNotChangeTheOptimum) {
  const auto d = disc_b1();
  for (const load::test_load l :
       {load::test_load::cl_alt, load::test_load::ils_alt}) {
    const load::trace t = load::paper_trace(l);
    search_options with;
    with.prune = true;
    search_options without;
    without.prune = false;
    const optimal_result a = optimal_schedule(d, 2, t, with);
    const optimal_result b = optimal_schedule(d, 2, t, without);
    EXPECT_DOUBLE_EQ(a.lifetime_min, b.lifetime_min) << load::name(l);
    EXPECT_GE(a.stats.pruned, b.stats.pruned);
  }
}

TEST(Worst, SequentialIsTheWorstSchedule) {
  // Section 6: "One can easily show, using the Cora model, that the
  // sequential scheduling is actually the worst possible way".
  const auto d = disc_b1();
  for (const load::test_load l :
       {load::test_load::cl_500, load::test_load::ils_500,
        load::test_load::cl_alt}) {
    const load::trace t = load::paper_trace(l);
    const optimal_result worst = worst_schedule(kibam::bank{d, 2}, t);
    const auto seq = sched::sequential();
    const double seq_lt = sched::simulate_discrete(d, 2, t, *seq).lifetime_min;
    EXPECT_NEAR(worst.lifetime_min, seq_lt, 1e-9) << load::name(l);
  }
}

TEST(Optimal, SingleBatteryHasNoChoice) {
  const auto d = disc_b1();
  const load::trace t = load::paper_trace(load::test_load::ils_500);
  const optimal_result r = optimal_schedule(d, 1, t);
  EXPECT_NEAR(r.lifetime_min, kibam::discrete_lifetime(d, t), 1e-9);
}

TEST(Optimal, ThreeBatteriesBeatTwo) {
  const auto d = disc_b1();
  const load::trace t = load::paper_trace(load::test_load::cl_alt);
  const double two = optimal_schedule(d, 2, t).lifetime_min;
  const double three = optimal_schedule(d, 3, t).lifetime_min;
  EXPECT_GT(three, two);
}

TEST(DrainBound, IsAdmissible) {
  // The bound must never underestimate the realizable system lifetime.
  const auto d = disc_b1();
  for (const load::test_load l :
       {load::test_load::cl_250, load::test_load::ils_alt,
        load::test_load::ill_500}) {
    const load::trace t = load::paper_trace(l);
    const optimal_result r = optimal_schedule(d, 2, t);
    const std::int64_t bound =
        drain_bound_steps(d.steps(), t, 0, 2 * d.total_units());
    const auto realized = static_cast<std::int64_t>(
        r.lifetime_min / d.steps().time_step_min + 0.5);
    EXPECT_GE(bound, realized) << load::name(l);
  }
}

TEST(DrainBound, ZeroChargeZeroBound) {
  const auto d = disc_b1();
  const load::trace t = load::paper_trace(load::test_load::cl_250);
  EXPECT_EQ(drain_bound_steps(d.steps(), t, 0, 0), 0);
}

TEST(DrainBound, IdleEpochsAddTime) {
  const auto d = disc_b1();
  // Same job drain, but the ILl variant interleaves 2-minute idles, so the
  // bound in wall-clock time must be larger.
  const std::int64_t cl = drain_bound_steps(
      d.steps(), load::paper_trace(load::test_load::cl_250), 0, 100);
  const std::int64_t ill = drain_bound_steps(
      d.steps(), load::paper_trace(load::test_load::ill_250), 0, 100);
  EXPECT_GT(ill, cl);
}

// --- Bit-exactness regression against the pre-refactor search. ---
//
// Lifetime and decision goldens recorded from the identical-bank
// implementation (PR 1, `optimal_schedule(disc, count)` with one shared
// discretization) before the kibam::bank refactor: on every Table 5
// workload the search must reproduce the lifetime and the decision vector
// exactly. The node counts are the effort golden of the *current*
// trajectory-bound + warm-start search (updated deliberately with that
// change; the pre-bound counts equalled worst_nodes on every row — e.g.
// CL 250 s fell 759 -> 330 and ILs 250 s 20804 -> 9218). The maximising
// counts must never exceed the unpruned minimising ones. The memo-hit and
// bound-prune counts pin the search's *decisions*, not only its size:
// every admissible-bound comparison must come out the same way, and a
// drift that node counts alone might absorb (a prune traded for a memo
// hit) shows here.
//
// The counts are 32-bit and the worst-case lifetime comes last so the
// parameter stays 48 bytes: ctest names embed its size ("GetParam() =
// 48-byte object"), and these test names stay stable across edits.
struct golden_case {
  load::test_load load;
  double opt_lifetime;        // minutes
  const char* opt_decisions;  // battery index per new_job event
  std::uint32_t opt_nodes;
  std::uint32_t opt_memo_hits;
  std::uint32_t opt_pruned_by_bound;
  std::uint32_t worst_nodes;
  double worst_lifetime;
};

const golden_case k_golden[] = {
    {load::test_load::cl_250, 12.00, "0100011101010", 330, 17, 287, 759,
     9.04},
    {load::test_load::cl_500, 4.54, "001101", 13, 6, 2, 15, 4.08},
    {load::test_load::cl_alt, 6.46, "00101010", 22, 8, 11, 40, 5.40},
    {load::test_load::ils_250, 40.76, "0000011011011010101011", 9218, 1736,
     7211, 20804, 22.72},
    {load::test_load::ils_500, 10.48, "0011011", 14, 7, 7, 21, 8.58},
    {load::test_load::ils_alt, 16.88, "0010110101", 46, 12, 24, 92, 12.36},
    {load::test_load::ils_r1, 20.48, "001010110111", 87, 14, 28, 138, 12.80},
    {load::test_load::ils_r2, 14.52, "010011011", 40, 9, 24, 67, 12.22},
    {load::test_load::ill_250, 78.92, "0000000100101011110101101011", 80159,
     34871, 33166, 119125, 45.84},
    {load::test_load::ill_500, 18.68, "00110100", 17, 9, 7, 26, 12.92},
};

class PreRefactorGolden : public testing::TestWithParam<golden_case> {};

TEST_P(PreRefactorGolden, HomogeneousSearchIsBitIdentical) {
  const golden_case& c = GetParam();
  const auto d = disc_b1();
  const load::trace t = load::paper_trace(c.load);
  const optimal_result best = optimal_schedule(d, 2, t);
  EXPECT_NEAR(best.lifetime_min, c.opt_lifetime, 1e-9);
  EXPECT_EQ(decision_digits(best.decisions), c.opt_decisions);
  EXPECT_EQ(best.stats.nodes, c.opt_nodes);
  EXPECT_EQ(best.stats.memo_hits, c.opt_memo_hits);
  EXPECT_EQ(best.stats.pruned_by_bound, c.opt_pruned_by_bound);
  EXPECT_LE(best.stats.nodes, c.worst_nodes);  // the bound must prune
  const optimal_result worst = worst_schedule(kibam::bank{d, 2}, t);
  EXPECT_NEAR(worst.lifetime_min, c.worst_lifetime, 1e-9);
  EXPECT_EQ(worst.stats.nodes, c.worst_nodes);
}

INSTANTIATE_TEST_SUITE_P(
    Table5Loads, PreRefactorGolden, testing::ValuesIn(k_golden),
    [](const testing::TestParamInfo<golden_case>& pinfo) {
      std::string n = load::name(pinfo.param.load);
      for (char& ch : n) {
        if (ch == ' ') ch = '_';
      }
      return n;
    });

TEST(SearchGolden, ThreeBatteryStatsAreBitIdentical) {
  // The same effort golden on 3 x B1, where a memo key frame is five
  // words (hash, epoch and three packed states): node, memo-hit and
  // bound-prune counts, lifetimes and decisions, recorded before the memo
  // probes were tag-filtered and the bound walk's divide narrowed.
  struct row {
    load::test_load load;
    double lifetime;
    const char* decisions;
    std::uint64_t nodes;
    std::uint64_t memo_hits;
    std::uint64_t pruned_by_bound;
  };
  const row rows[] = {
      {load::test_load::cl_alt, 11.32, "00112020120122", 493, 26, 1176},
      {load::test_load::ils_500, 20.40, "0011202101211", 475, 25, 595},
      {load::test_load::ill_500, 40.00, "0112012021010202", 2828, 38, 3455},
      {load::test_load::ils_r2, 30.94, "001002211020210121", 12769, 80,
       18781},
  };
  const auto d = disc_b1();
  for (const row& r : rows) {
    SCOPED_TRACE(load::name(r.load));
    const optimal_result best = optimal_schedule(d, 3, load::paper_trace(r.load));
    EXPECT_NEAR(best.lifetime_min, r.lifetime, 1e-9);
    EXPECT_EQ(decision_digits(best.decisions), r.decisions);
    EXPECT_EQ(best.stats.nodes, r.nodes);
    EXPECT_EQ(best.stats.memo_hits, r.memo_hits);
    EXPECT_EQ(best.stats.pruned_by_bound, r.pruned_by_bound);
  }
}

// --- Heterogeneous banks. ---

TEST(Heterogeneous, OptStrictlyBeatsGreedyOnMixedCapacities) {
  // A 5.5 + 4.0 A*min bank under ILs alt: greedy best-of-n reaches 12.36
  // minutes, the exact schedule 12.84 — the mixed-capacity counterpart of
  // the paper's Table 5 gap.
  const std::vector<kibam::battery_parameters> params{
      kibam::itsy_battery(5.5), kibam::itsy_battery(4.0)};
  const kibam::bank bank{params};
  const load::trace t = load::paper_trace(load::test_load::ils_alt);
  const auto greedy = sched::best_of_n();
  const double greedy_lt =
      sched::simulate_discrete(bank, t, *greedy).lifetime_min;
  const optimal_result best = optimal_schedule(bank, t);
  EXPECT_GT(best.lifetime_min, greedy_lt + 0.1);
  // The decision list replays to the same lifetime through the simulator
  // (search and simulator advance the same bank representation).
  const auto replay = sched::fixed_schedule(best.decisions);
  EXPECT_NEAR(sched::simulate_discrete(bank, t, *replay).lifetime_min,
              best.lifetime_min, 1e-9);
}

TEST(Heterogeneous, SearchBoundsEveryPolicyOnSeededRandomBanks) {
  // Property over seeded random mixed banks: the exact extremes bracket
  // every realizable schedule — worst <= {sequential, best_of_n,
  // lookahead} <= opt. (The middle links are NOT mutually ordered:
  // rollout can score below greedy on adversarial loads.)
  for (const std::uint64_t seed : {1u, 7u, 23u, 40u, 91u, 123u}) {
    rng r{seed};
    std::vector<kibam::battery_parameters> params;
    for (std::size_t b = 0; b < 2; ++b) {
      // Capacities 2.0..5.0 A*min in 0.25 steps: exact on the charge grid.
      params.push_back(kibam::itsy_battery(2.0 + 0.25 * r.below(13)));
    }
    const kibam::bank bank{params};
    for (const load::test_load l :
         {load::test_load::cl_alt, load::test_load::ils_500}) {
      const load::trace t = load::paper_trace(l);
      const double best = optimal_schedule(bank, t).lifetime_min;
      const double worst = worst_schedule(bank, t).lifetime_min;
      const auto check = [&](double lt, const char* who) {
        EXPECT_GE(lt, worst - 1e-9)
            << who << " undercuts worst, seed " << seed << ", "
            << load::name(l);
        EXPECT_LE(lt, best + 1e-9)
            << who << " beats opt, seed " << seed << ", " << load::name(l);
      };
      const auto seq = sched::sequential();
      check(sched::simulate_discrete(bank, t, *seq).lifetime_min,
            "sequential");
      const auto bo = sched::best_of_n();
      check(sched::simulate_discrete(bank, t, *bo).lifetime_min,
            "best_of_n");
      const auto la = lookahead_policy(2);
      check(sched::simulate_discrete(bank, t, *la).lifetime_min,
            "lookahead");
    }
  }
}

TEST(Heterogeneous, BatteryOrderDoesNotChangeTheOptimum) {
  // The memo key sorts states within type groups, never across them; the
  // optimum itself must be invariant under permuting the bank.
  const load::trace t = load::paper_trace(load::test_load::cl_alt);
  const kibam::bank ab{{kibam::itsy_battery(5.5), kibam::itsy_battery(4.0)}};
  const kibam::bank ba{{kibam::itsy_battery(4.0), kibam::itsy_battery(5.5)}};
  EXPECT_NEAR(optimal_schedule(ab, t).lifetime_min,
              optimal_schedule(ba, t).lifetime_min, 1e-12);
  EXPECT_NEAR(worst_schedule(ab, t).lifetime_min,
              worst_schedule(ba, t).lifetime_min, 1e-12);
}

TEST(Heterogeneous, DuplicateTypesStillCollapseBySymmetry) {
  // Identical parameter sets deduplicate into one type, so interchangeable
  // batteries keep collapsing in the memo key even inside mixed banks, and
  // an all-identical bank built through the heterogeneous constructor is
  // exactly the homogeneous search.
  const load::trace t = load::paper_trace(load::test_load::cl_500);
  const kibam::bank two_types{{kibam::itsy_battery(3.0),
                               kibam::itsy_battery(3.0),
                               kibam::itsy_battery(4.0)}};
  EXPECT_EQ(two_types.type_count(), 2u);
  const optimal_result r = optimal_schedule(two_types, t);
  EXPECT_GT(r.lifetime_min, 0.0);
  // And a fully homogeneous triple collapses to one type.
  const kibam::bank one_type{{kibam::itsy_battery(3.0),
                              kibam::itsy_battery(3.0),
                              kibam::itsy_battery(3.0)}};
  EXPECT_EQ(one_type.type_count(), 1u);
  EXPECT_NEAR(optimal_schedule(one_type, t).lifetime_min,
              optimal_schedule(kibam::discretization{kibam::itsy_battery(3.0)},
                               3, t)
                  .lifetime_min,
              1e-12);
}

TEST(DrainBound, PerBatteryCapIsAdmissible) {
  // deliverable_units must never undercut what a battery actually
  // delivers in a real run. Measure per-battery delivered units off the
  // recorded trace for several policies on a mixed bank.
  const std::vector<kibam::battery_parameters> params{
      kibam::itsy_battery(5.5), kibam::itsy_battery(4.0)};
  const kibam::bank bank{params};
  for (const load::test_load l :
       {load::test_load::cl_250, load::test_load::ils_alt,
        load::test_load::ill_500}) {
    const load::trace t = load::paper_trace(l);
    std::int64_t max_draw = 0;
    for (const load::epoch& e : t.cycle()) {
      if (e.current_a > 0) {
        max_draw = std::max(max_draw,
                            load::rate_for(e.current_a, bank.steps()).units);
      }
    }
    for (auto make : {sched::sequential, sched::best_of_n}) {
      const auto pol = make();
      sched::sim_options opts;
      opts.record_trace = true;
      const sched::sim_result r =
          sched::simulate_discrete(bank, t, *pol, opts);
      ASSERT_FALSE(r.trace.empty());
      for (std::size_t b = 0; b < bank.size(); ++b) {
        const double unit = bank.steps().charge_unit_amin;
        const auto n_end = static_cast<std::int64_t>(
            r.trace.back().total_amin[b] / unit + 0.5);
        const std::int64_t delivered = bank.disc(b).total_units() - n_end;
        EXPECT_LE(delivered,
                  deliverable_units(bank.disc(b), bank.disc(b).total_units(),
                                    max_draw))
            << pol->name() << " battery " << b << " on " << load::name(l);
      }
    }
  }
}

TEST(DrainBound, PerBatteryCapProperties) {
  const auto d = disc_b1();
  const std::int64_t n0 = d.total_units();
  // Never exceeds the remaining charge, and is monotone in it.
  std::int64_t prev = 0;
  for (std::int64_t n = 0; n <= n0; n += 25) {
    const std::int64_t cap = deliverable_units(d, n, 1);
    EXPECT_LE(cap, n);
    EXPECT_GE(cap, prev);
    prev = cap;
  }
  // The c-fraction stranding bites: a full B1 cell under unit draws can
  // never deliver its whole charge.
  EXPECT_LT(deliverable_units(d, n0, 1), n0);
  // Large final draws wash the stranding out (the cap stays admissible).
  EXPECT_EQ(deliverable_units(d, n0, 8), n0);
  // A nearly-empty battery still delivers its final draw at most.
  EXPECT_EQ(deliverable_units(d, 1, 1), 1);
  EXPECT_EQ(deliverable_units(d, 0, 1), 0);
}

TEST(Heterogeneous, PerBatteryBoundNeverExpandsMoreNodes) {
  // The admissible trajectory bound may only ever prune: identical
  // lifetimes and decisions to the exhaustive (unpruned) reference, and
  // node counts shrink or stay equal on the 5.5 + 4.0 A*min mixed bank.
  const kibam::bank bank{{kibam::itsy_battery(5.5),
                          kibam::itsy_battery(4.0)}};
  search_options exhaustive;
  exhaustive.prune = false;
  std::uint64_t pruned_by_bound = 0;
  for (const load::test_load l : load::all_test_loads()) {
    const load::trace t = load::paper_trace(l);
    const optimal_result a = optimal_schedule(bank, t);
    const optimal_result b = optimal_schedule(bank, t, exhaustive);
    EXPECT_DOUBLE_EQ(a.lifetime_min, b.lifetime_min) << load::name(l);
    EXPECT_EQ(a.decisions, b.decisions) << load::name(l);
    EXPECT_LE(a.stats.nodes, b.stats.nodes) << load::name(l);
    pruned_by_bound += a.stats.pruned_by_bound;
  }
  EXPECT_GT(pruned_by_bound, 0u);
}

TEST(Optimal, HomogeneousBanksUseTheTrajectoryBoundToo) {
  // The trajectory bound applies to every bank (the recovery-rate
  // bottleneck it tracks is what kills the homogeneous Table 5 banks):
  // one-type banks prune against the exhaustive reference while the
  // result stays exact.
  const auto d = disc_b1();
  const load::trace t = load::paper_trace(load::test_load::ils_alt);
  search_options exhaustive;
  exhaustive.prune = false;
  const optimal_result a = optimal_schedule(d, 2, t);
  const optimal_result b = optimal_schedule(d, 2, t, exhaustive);
  EXPECT_DOUBLE_EQ(a.lifetime_min, b.lifetime_min);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_LE(a.stats.nodes, b.stats.nodes);
  EXPECT_GT(a.stats.pruned_by_bound, 0u);
}

TEST(Optimal, StatsAreReported) {
  const auto d = disc_b1();
  const load::trace t = load::paper_trace(load::test_load::cl_alt);
  const optimal_result r = optimal_schedule(d, 2, t);
  EXPECT_GT(r.stats.nodes, 0u);
  EXPECT_GT(r.stats.memo_entries, 0u);
  EXPECT_FALSE(r.decisions.empty());
}

TEST(TrajectoryBound, IsAdmissibleOnSeededRandomHeterogeneousBanks) {
  // Property over seeded random mixed banks: the trajectory bound from the
  // full root state never undercuts the exact optimum (admissibility — the
  // search may prune with it without losing the optimal schedule) and
  // never exceeds the flat drain cap it succeeds (it only ever tightens).
  for (const std::uint64_t seed : {3u, 11u, 29u, 57u, 88u, 131u}) {
    rng r{seed};
    std::vector<kibam::battery_parameters> params;
    const std::size_t batteries = 2 + seed % 2;  // 2- and 3-battery banks
    for (std::size_t b = 0; b < batteries; ++b) {
      params.push_back(kibam::itsy_battery(2.0 + 0.25 * r.below(13)));
    }
    const kibam::bank bank{params};
    for (const load::test_load l :
         {load::test_load::cl_alt, load::test_load::ils_500,
          load::test_load::ils_alt}) {
      const load::trace t = load::paper_trace(l);
      std::int64_t max_draw = 0;
      std::int64_t flat_units = 0;
      for (const load::epoch& e : t.cycle()) {
        if (e.current_a > 0) {
          max_draw = std::max(
              max_draw, load::rate_for(e.current_a, bank.steps()).units);
        }
      }
      for (std::size_t b = 0; b < bank.size(); ++b) {
        flat_units += deliverable_units(bank.disc(b),
                                        bank.disc(b).total_units(), max_draw);
      }
      const std::int64_t bound = trajectory_bound_steps(
          bank, bank.full_states(), t, 0, max_draw);
      const std::int64_t flat =
          drain_bound_steps(bank.steps(), t, 0, flat_units);
      const optimal_result best = optimal_schedule(bank, t);
      const auto best_steps = static_cast<std::int64_t>(
          std::llround(best.lifetime_min / bank.steps().time_step_min));
      EXPECT_GE(bound, best_steps)
          << "bound undercuts the optimum: seed " << seed << ", "
          << load::name(l);
      EXPECT_LE(bound, flat)
          << "bound looser than the flat drain cap: seed " << seed << ", "
          << load::name(l);
    }
  }
}

TEST(Optimal, NodeBudgetEnforced) {
  const auto d = disc_b1();
  const load::trace t = load::paper_trace(load::test_load::ils_250);
  search_options opts;
  opts.max_nodes = 1;
  EXPECT_THROW(optimal_schedule(d, 2, t, opts), bsched::error);
}

TEST(Optimal, NodeBudgetMustFitTheMemoIndex) {
  // Every expanded node may store one memo entry, and the memo numbers
  // its entries in 32 bits: a budget it could not index is refused up
  // front, naming the option.
  const auto d = disc_b1();
  const load::trace t = load::paper_trace(load::test_load::cl_alt);
  constexpr std::uint64_t widest = std::numeric_limits<std::uint32_t>::max();
  search_options opts;
  opts.max_nodes = widest + 1;
  try {
    (void)optimal_schedule(d, 2, t, opts);
    ADD_FAILURE() << "a 2^32 node budget was accepted";
  } catch (const bsched::error& e) {
    EXPECT_NE(std::string{e.what()}.find("max_nodes"), std::string::npos)
        << e.what();
  }
  opts.max_nodes = widest;
  EXPECT_EQ(optimal_schedule(d, 2, t, opts).stats.nodes, 22u);
}

}  // namespace
}  // namespace bsched::opt
