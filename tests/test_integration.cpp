// Cross-module integration and property tests: random workloads pushed
// through every engine (analytic, discrete stepper, simulator, optimal
// search), checking the physical and algorithmic invariants that tie the
// library together.
#include <gtest/gtest.h>

#include <cmath>

#include "kibam/discrete.hpp"
#include "kibam/kibam.hpp"
#include "load/random.hpp"
#include "opt/policies.hpp"
#include "opt/search.hpp"
#include "sched/policy.hpp"
#include "sched/simulator.hpp"

namespace bsched {
namespace {

class RandomLoadSweep : public testing::TestWithParam<std::uint64_t> {};

load::trace random_trace(std::uint64_t seed) {
  // 40 jobs, bursty mix of low/high, 1-minute gaps; cycled when outlived.
  return load::markov_jobs(40, 0.7, 1.0, seed).to_trace();
}

TEST_P(RandomLoadSweep, DiscreteTracksAnalyticWithinOnePercent) {
  const auto battery = kibam::battery_b1();
  const kibam::discretization disc{battery};
  const load::trace t = random_trace(GetParam());
  const double analytic = kibam::lifetime(battery, t);
  const double discrete = kibam::discrete_lifetime(disc, t);
  EXPECT_NEAR(discrete, analytic, 0.012 * analytic) << "seed " << GetParam();
}

TEST_P(RandomLoadSweep, PolicyOrderHoldsOnRandomLoads) {
  // worst <= sequential <= each policy <= optimal, on arbitrary loads.
  const kibam::discretization disc{kibam::battery_b1()};
  const load::trace t = random_trace(GetParam());
  const double worst =
      opt::worst_schedule(kibam::bank{disc, 2}, t).lifetime_min;
  const double best = opt::optimal_schedule(disc, 2, t).lifetime_min;
  EXPECT_LE(worst, best);
  for (auto make : {sched::sequential, sched::round_robin, sched::best_of_n,
                    sched::worst_of_n}) {
    const auto pol = make();
    const double lt =
        sched::simulate_discrete(disc, 2, t, *pol).lifetime_min;
    EXPECT_GE(lt, worst - 1e-9) << pol->name() << " seed " << GetParam();
    EXPECT_LE(lt, best + 1e-9) << pol->name() << " seed " << GetParam();
  }
  const auto lookahead = opt::lookahead_policy(3);
  const double la =
      sched::simulate_discrete(disc, 2, t, *lookahead).lifetime_min;
  EXPECT_GE(la, worst - 1e-9);
  EXPECT_LE(la, best + 1e-9);
}

TEST_P(RandomLoadSweep, ChargeIsConserved) {
  // Units drawn (lifetime integrated over the served segments) plus the
  // residual equal the initial charge of the bank.
  const kibam::discretization disc{kibam::battery_b1()};
  const load::trace t = random_trace(GetParam());
  const auto pol = sched::best_of_n();
  const sched::sim_result r = sched::simulate_discrete(disc, 2, t, *pol);
  // Count the served charge by walking the epochs up to the lifetime.
  double served_amin = 0;
  double start = 0;
  for (load::epoch_cursor cursor{t}; start < r.lifetime_min;
       cursor.advance()) {
    const load::epoch& e = cursor.current();
    const double end = std::min(start + e.duration_min, r.lifetime_min);
    served_amin += e.current_a * (end - start);
    start += e.duration_min;
  }
  const double initial = 2 * 5.5;
  // Discretization rounds each draw to whole units; allow a few units.
  EXPECT_NEAR(served_amin + r.residual_amin, initial, 0.06)
      << "seed " << GetParam();
}

TEST_P(RandomLoadSweep, OptimalReplaysExactly) {
  const kibam::discretization disc{kibam::battery_b1()};
  const load::trace t = random_trace(GetParam());
  const opt::optimal_result best = opt::optimal_schedule(disc, 2, t);
  const auto replay = sched::fixed_schedule(best.decisions);
  EXPECT_NEAR(sched::simulate_discrete(disc, 2, t, *replay).lifetime_min,
              best.lifetime_min, 1e-9)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLoadSweep,
                         testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

TEST(Integration, OptimalLifetimeMonotoneInBatteryCount) {
  const kibam::discretization disc{kibam::itsy_battery(2.0)};
  const load::trace t = load::paper_trace(load::test_load::ils_alt);
  double prev = 0;
  for (const std::size_t count : {1u, 2u, 3u}) {
    const double lt = opt::optimal_schedule(disc, count, t).lifetime_min;
    EXPECT_GT(lt, prev);
    prev = lt;
  }
}

TEST(Integration, OptimalLifetimeMonotoneInCapacity) {
  const load::trace t = load::paper_trace(load::test_load::cl_alt);
  double prev = 0;
  for (const double capacity : {2.0, 4.0, 5.5}) {
    const kibam::discretization disc{kibam::itsy_battery(capacity)};
    const double lt = opt::optimal_schedule(disc, 2, t).lifetime_min;
    EXPECT_GT(lt, prev);
    prev = lt;
  }
}

TEST(Integration, ContinuousAndDiscreteAgreeOnRandomLoads) {
  const std::vector<kibam::battery_parameters> bank(2, kibam::battery_b1());
  const kibam::discretization disc{kibam::battery_b1()};
  for (const std::uint64_t seed : {21u, 34u}) {
    const load::trace t = random_trace(seed);
    const auto pc = sched::best_of_n();
    const auto pd = sched::best_of_n();
    const double cont = sched::simulate_continuous(bank, t, *pc).lifetime_min;
    const double disc_lt =
        sched::simulate_discrete(disc, 2, t, *pd).lifetime_min;
    EXPECT_NEAR(cont, disc_lt, 0.03 * cont) << "seed " << seed;
  }
}

TEST(Integration, WorstScheduleNeverRecoversMoreThanOptimal) {
  // The residual at death shrinks as schedules improve: optimal extracts
  // at least as much charge as the worst schedule on the same load.
  const kibam::discretization disc{kibam::battery_b1()};
  const load::trace t = load::paper_trace(load::test_load::ils_alt);
  const opt::optimal_result best = opt::optimal_schedule(disc, 2, t);
  const opt::optimal_result worst =
      opt::worst_schedule(kibam::bank{disc, 2}, t);
  const auto best_replay = sched::fixed_schedule(best.decisions);
  const auto worst_replay = sched::fixed_schedule(worst.decisions);
  const double best_residual =
      sched::simulate_discrete(disc, 2, t, *best_replay).residual_amin;
  const double worst_residual =
      sched::simulate_discrete(disc, 2, t, *worst_replay).residual_amin;
  EXPECT_LE(best_residual, worst_residual + 1e-9);
}

TEST(Integration, HigherPeakLoadsShortenOptimalLifetime) {
  const kibam::discretization disc{kibam::battery_b1()};
  const double low =
      opt::optimal_schedule(disc, 2,
                            load::paper_trace(load::test_load::ils_250))
          .lifetime_min;
  const double high =
      opt::optimal_schedule(disc, 2,
                            load::paper_trace(load::test_load::ils_500))
          .lifetime_min;
  EXPECT_GT(low, high);
}

}  // namespace
}  // namespace bsched
