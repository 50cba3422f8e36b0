#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "api/scenario.hpp"
#include "kibam/discrete.hpp"
#include "load/jobs.hpp"
#include "opt/policies.hpp"
#include "opt/search.hpp"
#include "sched/policy.hpp"
#include "sched/simulator.hpp"
#include "util/rng.hpp"

namespace bsched::opt {
namespace {

kibam::discretization disc_b1() {
  return kibam::discretization{kibam::battery_b1()};
}

/// One discrete run of the registry's "lookahead:horizon=N" policy: the
/// simulation and the policy's rollout count.
struct lookahead_run {
  sched::sim_result sim;
  std::uint64_t rollouts = 0;
};

lookahead_run run_lookahead(const kibam::bank& bank, const load::trace& t,
                            std::size_t horizon) {
  const std::unique_ptr<sched::policy> pol = lookahead_policy(horizon);
  sched::sim_result sim = sched::simulate_discrete(bank, t, *pol);
  return {std::move(sim), pol->stats().rollouts};
}

lookahead_run run_lookahead(const kibam::discretization& d,
                            std::size_t battery_count, const load::trace& t,
                            std::size_t horizon) {
  return run_lookahead(kibam::bank{d, battery_count}, t, horizon);
}

/// Battery index per decision (job starts and hand-overs), as digits.
std::string decision_digits(const std::vector<sched::decision>& decisions) {
  std::string out;
  for (const sched::decision& dec : decisions) {
    out += static_cast<char>('0' + dec.battery);
  }
  return out;
}

/// Battery index per decision (job starts and hand-overs).
std::vector<std::size_t> batteries_of(
    const std::vector<sched::decision>& decisions) {
  std::vector<std::size_t> out;
  for (const sched::decision& dec : decisions) out.push_back(dec.battery);
  return out;
}

TEST(Lookahead, NeverBeatsTheOptimum) {
  const auto d = disc_b1();
  for (const load::test_load l : load::all_test_loads()) {
    const load::trace t = load::paper_trace(l);
    const double best = optimal_schedule(d, 2, t).lifetime_min;
    for (const std::size_t horizon : {0u, 2u, 4u}) {
      const double la = run_lookahead(d, 2, t, horizon).sim.lifetime_min;
      EXPECT_LE(la, best + 1e-9)
          << load::name(l) << " horizon " << horizon;
    }
  }
}

TEST(Lookahead, BoundedByWorstAndOptimal) {
  // Every horizon produces a *valid* schedule, so it can never undercut
  // the provably worst schedule nor beat the optimum.
  const auto d = disc_b1();
  for (const load::test_load l :
       {load::test_load::ils_alt, load::test_load::cl_alt,
        load::test_load::ils_r1}) {
    const load::trace t = load::paper_trace(l);
    const double worst = worst_schedule(kibam::bank{d, 2}, t).lifetime_min;
    const double best = optimal_schedule(d, 2, t).lifetime_min;
    for (const std::size_t horizon : {0u, 1u, 3u}) {
      const double la = run_lookahead(d, 2, t, horizon).sim.lifetime_min;
      EXPECT_GE(la, worst - 1e-9) << load::name(l) << " h=" << horizon;
      EXPECT_LE(la, best + 1e-9) << load::name(l) << " h=" << horizon;
    }
  }
}

TEST(Lookahead, ClosesTheGapOnIlsR1) {
  // The paper's starkest greedy failure: ILs r1 has best-of-two 16.26 but
  // optimal 20.52. A modest rollout horizon recovers most of the gap.
  const auto d = disc_b1();
  const load::trace t = load::paper_trace(load::test_load::ils_r1);
  const auto b2 = sched::best_of_n();
  const double greedy = sched::simulate_discrete(d, 2, t, *b2).lifetime_min;
  const double opt = optimal_schedule(d, 2, t).lifetime_min;
  const double la4 = run_lookahead(d, 2, t, 4).sim.lifetime_min;
  EXPECT_GT(la4, greedy + 0.5 * (opt - greedy))
      << "horizon 4 should recover at least half the optimality gap";
}

TEST(Lookahead, LongerHorizonHelpsOnAverage) {
  // Not a per-load guarantee (rollout is a heuristic), but across the
  // suite a longer horizon must not lose lifetime in aggregate.
  const auto d = disc_b1();
  double total_short = 0, total_long = 0;
  for (const load::test_load l : load::all_test_loads()) {
    const load::trace t = load::paper_trace(l);
    total_short += run_lookahead(d, 2, t, 0).sim.lifetime_min;
    total_long += run_lookahead(d, 2, t, 4).sim.lifetime_min;
  }
  EXPECT_GE(total_long, total_short - 1e-9);
}

TEST(Lookahead, DecisionsReplayInTheSimulator) {
  const auto d = disc_b1();
  const load::trace t = load::paper_trace(load::test_load::ils_alt);
  const lookahead_run r = run_lookahead(d, 2, t, 2);
  ASSERT_FALSE(r.sim.decisions.empty());
  // The job-start decisions replayed through the simulator reproduce the
  // lifetime (hand-overs inside jobs use the same greedy rule in both).
  const auto replay = sched::fixed_schedule(batteries_of(r.sim.decisions));
  const double replayed =
      sched::simulate_discrete(d, 2, t, *replay).lifetime_min;
  EXPECT_NEAR(replayed, r.sim.lifetime_min, 0.05);
}

TEST(Lookahead, RolloutCountBoundedByDecisions) {
  // At most one rollout per alive battery per decision point — linear in
  // the schedule length, unlike the exponential exact search.
  const auto d = disc_b1();
  const load::trace t = load::paper_trace(load::test_load::ils_500);
  for (const std::size_t horizon : {0u, 8u}) {
    const lookahead_run r = run_lookahead(d, 2, t, horizon);
    EXPECT_GT(r.rollouts, 0u);
    EXPECT_LE(r.rollouts, 2 * r.sim.decisions.size());
  }
}

TEST(Lookahead, SingleBatteryMatchesPlainLifetime) {
  const auto d = disc_b1();
  const load::trace t = load::paper_trace(load::test_load::ill_500);
  const double la = run_lookahead(d, 1, t, 3).sim.lifetime_min;
  EXPECT_NEAR(la, kibam::discrete_lifetime(d, t), 1e-9);
}

// --- Bit-exactness regression against the precomputed implementation. ---
//
// Golden values recorded from the first, precomputed lookahead scheduler
// (rollouts run outside the simulator, replayed through a fixed schedule)
// on every Table 5 workload. The registry's online policy — deciding
// inside the simulator through the model_view — must reproduce the
// lifetime, the decision vector (job starts and hand-overs) and the
// rollout count exactly.
struct lookahead_golden {
  load::test_load load;
  std::size_t horizon;
  double lifetime;         // minutes (exact on the 0.01 grid)
  const char* decisions;   // battery index per new_job event
  std::uint64_t rollouts;
};

const lookahead_golden k_lookahead_golden[] = {
    {load::test_load::cl_250, 2, 11.56, "0101010110011", 22},
    {load::test_load::cl_250, 4, 11.60, "0101011001011", 22},
    {load::test_load::cl_500, 2, 4.50, "010101", 9},
    {load::test_load::cl_500, 4, 4.54, "001101", 9},
    {load::test_load::cl_alt, 2, 6.34, "01110100", 12},
    {load::test_load::cl_alt, 4, 6.46, "00101010", 13},
    {load::test_load::ils_250, 2, 38.92, "010101010101010101011", 38},
    {load::test_load::ils_250, 4, 38.92, "010101010101010101011", 38},
    {load::test_load::ils_500, 2, 10.44, "0101011", 10},
    {load::test_load::ils_500, 4, 10.48, "0011011", 10},
    {load::test_load::ils_alt, 2, 16.30, "0101100111", 15},
    {load::test_load::ils_alt, 4, 16.88, "0010110101", 17},
    {load::test_load::ils_r1, 2, 16.24, "0101100000", 13},
    {load::test_load::ils_r1, 4, 19.00, "01001010100", 18},
    {load::test_load::ils_r2, 2, 14.46, "011010100", 14},
    {load::test_load::ils_r2, 4, 14.52, "010011011", 14},
    {load::test_load::ill_250, 2, 76.00, "010101010101010101010101011", 50},
    {load::test_load::ill_250, 4, 76.00, "010101010101010101010101011", 50},
    {load::test_load::ill_500, 2, 15.98, "0110100", 10},
    {load::test_load::ill_500, 4, 18.68, "00110100", 12},
};

TEST(LookaheadOnline, BitIdenticalToThePrecomputedReplay) {
  const auto d = disc_b1();
  for (const lookahead_golden& c : k_lookahead_golden) {
    const load::trace t = load::paper_trace(c.load);
    const lookahead_run r = run_lookahead(d, 2, t, c.horizon);
    EXPECT_NEAR(r.sim.lifetime_min, c.lifetime, 1e-9)
        << load::name(c.load) << " h=" << c.horizon;
    EXPECT_EQ(decision_digits(r.sim.decisions), c.decisions)
        << load::name(c.load) << " h=" << c.horizon;
    EXPECT_EQ(r.rollouts, c.rollouts)
        << load::name(c.load) << " h=" << c.horizon;
  }
}

// --- The online policy beyond the old implementation's reach. ---

TEST(LookaheadOnline, RandomLoadsStayWithinWorstAndOpt) {
  // The precomputed implementation could not run under `random:` loads;
  // the online policy must, and its lifetime is bracketed by the exact
  // extremes on the same workload — seeded mixed banks included.
  const api::engine eng;
  for (const std::uint64_t seed : {3u, 17u, 88u}) {
    rng r{seed};
    std::vector<kibam::battery_parameters> bank;
    for (std::size_t b = 0; b < 2; ++b) {
      bank.push_back(kibam::itsy_battery(2.0 + 0.25 * r.below(13)));
    }
    api::scenario scn{
        .label = {},
        .batteries = bank,
        .load = api::load_spec::parse("markov:count=12,p=0.6,idle=1,seed=" +
                                      std::to_string(seed)),
        .policy = "lookahead:horizon=2",
        .model = api::fidelity::discrete,
        .steps = {},
        .sim = {}};
    const api::run_result la = eng.run(scn);
    EXPECT_GT(la.search.rollouts, 0u) << seed;
    api::scenario best_scn = scn;
    best_scn.policy = "opt";
    api::scenario worst_scn = scn;
    worst_scn.policy = "worst";
    const api::run_result best = eng.run(best_scn);
    const api::run_result worst = eng.run(worst_scn);
    EXPECT_GE(la.sim.lifetime_min, worst.sim.lifetime_min - 1e-9) << seed;
    EXPECT_LE(la.sim.lifetime_min, best.sim.lifetime_min + 1e-9) << seed;
  }
}

TEST(LookaheadOnline, ContinuousFidelityRollsOutAnalytically) {
  // At continuous fidelity the rollouts run on the analytic KiBaM; the
  // decisions land close to the discrete ones, so the lifetime tracks
  // the discrete lookahead within the usual model gap.
  const api::engine eng;
  const api::scenario scn{.label = {},
                          .batteries = api::bank(2, kibam::battery_b1()),
                          .load = load::test_load::ils_alt,
                          .policy = "lookahead:horizon=2",
                          .model = api::fidelity::continuous,
                          .steps = {},
                          .sim = {}};
  const api::run_result r = eng.run(scn);
  EXPECT_EQ(r.policy_name, "lookahead");
  EXPECT_GT(r.search.rollouts, 0u);
  EXPECT_EQ(r.search.nodes, 0u);
  api::scenario disc_scn = scn;
  disc_scn.model = api::fidelity::discrete;
  const api::run_result disc = eng.run(disc_scn);
  EXPECT_NEAR(r.sim.lifetime_min, disc.sim.lifetime_min,
              0.05 * disc.sim.lifetime_min);
  // Deterministic: a re-run reproduces the result exactly.
  EXPECT_EQ(eng.run(scn), r);
}

TEST(LookaheadOnline, DeterministicAcrossThreadCounts) {
  const api::engine eng;
  std::vector<api::scenario> cells;
  for (const load::test_load l :
       {load::test_load::ils_alt, load::test_load::cl_alt}) {
    for (const char* policy :
         {"lookahead:horizon=0", "lookahead:horizon=3"}) {
      for (const api::fidelity f :
           {api::fidelity::discrete, api::fidelity::continuous}) {
        cells.push_back({.label = {},
                         .batteries = api::bank(2, kibam::battery_b1()),
                         .load = l,
                         .policy = policy,
                         .model = f,
                         .steps = {},
                         .sim = {}});
      }
    }
  }
  const std::vector<api::run_result> one = eng.run_batch(cells, 1);
  const std::vector<api::run_result> four = eng.run_batch(cells, 4);
  for (const api::run_result& r : one) {
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_GT(r.search.rollouts, 0u);
  }
  EXPECT_EQ(one, four);
}

TEST(LookaheadOnline, ModelLessDriversDegradeToGreedy) {
  // A decision context without a model view (an exotic driver) falls
  // back to the greedy rule instead of crashing.
  const std::unique_ptr<sched::policy> pol = lookahead_policy(4);
  const std::vector<sched::battery_view> views{
      {0, 3.0, 0.4, false}, {1, 3.0, 0.9, false}, {2, 3.0, 0.7, false}};
  const sched::decision_context ctx{0,     0.0,          0.5,
                                    false, std::nullopt, views,
                                    nullptr};
  EXPECT_EQ(pol->choose(ctx), 1u);
  EXPECT_EQ(pol->stats().rollouts, 0u);
}

}  // namespace
}  // namespace bsched::opt
