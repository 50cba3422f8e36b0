#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "kibam/discrete.hpp"
#include "load/jobs.hpp"
#include "opt/policies.hpp"
#include "sched/policy.hpp"
#include "sched/registry.hpp"
#include "sched/simulator.hpp"

namespace bsched::sched {
namespace {

kibam::discretization disc_b1() {
  return kibam::discretization{kibam::battery_b1()};
}

TEST(SimulatorDiscrete, OneBatteryMatchesDiscreteLifetime) {
  const auto d = disc_b1();
  for (const auto l : {load::test_load::cl_250, load::test_load::ils_alt}) {
    const load::trace t = load::paper_trace(l);
    const auto pol = sequential();
    const sim_result r = simulate_discrete(d, 1, t, *pol);
    EXPECT_NEAR(r.lifetime_min, kibam::discrete_lifetime(d, t), 1e-9)
        << load::name(l);
  }
}

TEST(SimulatorDiscrete, SequentialIsTwoSingleLifetimes) {
  // Under the continuous load CL 250 the second battery starts fresh at the
  // instant the first dies, so the system lives exactly twice as long.
  const auto d = disc_b1();
  const load::trace t = load::paper_trace(load::test_load::cl_250);
  const double one = kibam::discrete_lifetime(d, t);
  const auto pol = sequential();
  const double two = simulate_discrete(d, 2, t, *pol).lifetime_min;
  EXPECT_NEAR(two, 2 * one, 0.05);
}

// --- Table 5 rows for the three deterministic schedulers. ---

struct table5_case {
  load::test_load load;
  double sequential;
  double round_robin;
  double best_of_two;
};

const table5_case k_table5[] = {
    {load::test_load::cl_250, 9.12, 11.60, 11.60},
    {load::test_load::cl_500, 4.10, 4.53, 4.53},
    {load::test_load::cl_alt, 5.48, 6.10, 6.12},
    {load::test_load::ils_250, 22.80, 38.96, 38.96},
    {load::test_load::ils_500, 8.60, 10.48, 10.48},
    {load::test_load::ils_alt, 12.38, 12.82, 16.30},
    {load::test_load::ils_r1, 12.80, 16.26, 16.26},
    {load::test_load::ils_r2, 12.24, 14.50, 14.50},
    {load::test_load::ill_250, 45.84, 76.00, 76.00},
    {load::test_load::ill_500, 12.94, 15.96, 15.96},
};

class Table5Deterministic : public testing::TestWithParam<table5_case> {};

// Each battery death can shift by one discharge tick relative to the
// published Cora runs (see EXPERIMENTS.md), so two deaths allow ~0.09 min.
TEST_P(Table5Deterministic, MatchesPaperWithinTicks) {
  const table5_case& c = GetParam();
  const auto d = disc_b1();
  const load::trace t = load::paper_trace(c.load);
  const auto seq = sequential();
  const auto rr = round_robin();
  const auto b2 = best_of_n();
  EXPECT_NEAR(simulate_discrete(d, 2, t, *seq).lifetime_min, c.sequential,
              0.09)
      << "sequential " << load::name(c.load);
  EXPECT_NEAR(simulate_discrete(d, 2, t, *rr).lifetime_min, c.round_robin,
              0.09)
      << "round robin " << load::name(c.load);
  EXPECT_NEAR(simulate_discrete(d, 2, t, *b2).lifetime_min, c.best_of_two,
              0.09)
      << "best-of-two " << load::name(c.load);
}

INSTANTIATE_TEST_SUITE_P(
    PaperLoads, Table5Deterministic, testing::ValuesIn(k_table5),
    [](const testing::TestParamInfo<table5_case>& pinfo) {
      std::string n = load::name(pinfo.param.load);
      for (char& ch : n) {
        if (ch == ' ') ch = '_';
      }
      return n;
    });

TEST(SimulatorDiscrete, SchedulersOrderedAsInPaper) {
  // sequential <= round robin and best-of-two >= round robin on every
  // paper load (Table 5's qualitative structure).
  const auto d = disc_b1();
  for (const load::test_load l : load::all_test_loads()) {
    const load::trace t = load::paper_trace(l);
    const auto seq = sequential();
    const auto rr = round_robin();
    const auto b2 = best_of_n();
    const double s = simulate_discrete(d, 2, t, *seq).lifetime_min;
    const double r = simulate_discrete(d, 2, t, *rr).lifetime_min;
    const double b = simulate_discrete(d, 2, t, *b2).lifetime_min;
    EXPECT_LE(s, r + 1e-9) << load::name(l);
    EXPECT_GE(b, r - 1e-9) << load::name(l);
  }
}

TEST(SimulatorDiscrete, RoundRobinAlternatesDecisions) {
  const auto d = disc_b1();
  const load::trace t = load::paper_trace(load::test_load::ils_250);
  const auto rr = round_robin();
  const sim_result r = simulate_discrete(d, 2, t, *rr);
  ASSERT_GE(r.decisions.size(), 4u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_NE(r.decisions[i].battery, r.decisions[i - 1].battery);
  }
}

TEST(SimulatorDiscrete, HandoverRecordedOnMidJobDeath) {
  const auto d = disc_b1();
  const load::trace t = load::paper_trace(load::test_load::cl_250);
  const auto seq = sequential();
  const sim_result r = simulate_discrete(d, 2, t, *seq);
  // Battery 0 dies mid-job under a continuous load: exactly one handover.
  std::size_t handovers = 0;
  for (const decision& dec : r.decisions) handovers += dec.handover ? 1 : 0;
  EXPECT_EQ(handovers, 1u);
}

TEST(SimulatorDiscrete, ResidualChargeIsSubstantial) {
  // Section 6: at death, ~70% (about 3.9 Amin of 5.5... for the pair,
  // ~3.9 of 11 total is not the claim; the claim is per the ILs alt case:
  // a large fraction of the total charge remains bound).
  const auto d = disc_b1();
  const load::trace t = load::paper_trace(load::test_load::ils_alt);
  const auto b2 = best_of_n();
  const sim_result r = simulate_discrete(d, 2, t, *b2);
  EXPECT_GT(r.residual_amin, 0.5 * 11.0);  // more than half stays behind
  EXPECT_LT(r.residual_amin, 0.9 * 11.0);
}

TEST(SimulatorDiscrete, TraceRecordingSamplesBothBatteries) {
  const auto d = disc_b1();
  const load::trace t = load::paper_trace(load::test_load::ils_alt);
  const auto b2 = best_of_n();
  sim_options opts;
  opts.record_trace = true;
  opts.sample_min = 0.1;
  const sim_result r = simulate_discrete(d, 2, t, *b2, opts);
  ASSERT_FALSE(r.trace.empty());
  for (const trace_point& pt : r.trace) {
    ASSERT_EQ(pt.total_amin.size(), 2u);
    ASSERT_EQ(pt.available_amin.size(), 2u);
    EXPECT_GE(pt.total_amin[0], 0.0);
    EXPECT_LE(pt.total_amin[0], 5.5);
    EXPECT_GE(pt.active, -1);
    EXPECT_LT(pt.active, 2);
  }
  // Time axis is monotone and spans the run.
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_GT(r.trace[i].time_min, r.trace[i - 1].time_min);
  }
  EXPECT_NEAR(r.trace.back().time_min, r.lifetime_min, 0.11);
}

TEST(SimulatorContinuous, MatchesAnalyticSingleBattery) {
  const std::vector<kibam::battery_parameters> bank{kibam::battery_b1()};
  for (const auto l : {load::test_load::cl_500, load::test_load::ill_250}) {
    const load::trace t = load::paper_trace(l);
    const auto pol = sequential();
    const sim_result r = simulate_continuous(bank, t, *pol);
    EXPECT_NEAR(r.lifetime_min, kibam::lifetime(kibam::battery_b1(), t),
                1e-6)
        << load::name(l);
  }
}

TEST(SimulatorContinuous, AgreesWithDiscreteTwoBatteries) {
  const std::vector<kibam::battery_parameters> bank(2, kibam::battery_b1());
  const auto d = disc_b1();
  for (const load::test_load l :
       {load::test_load::ils_alt, load::test_load::cl_alt}) {
    const load::trace t = load::paper_trace(l);
    const auto pol_c = best_of_n();
    const auto pol_d = best_of_n();
    const double cont = simulate_continuous(bank, t, *pol_c).lifetime_min;
    const double disc = simulate_discrete(d, 2, t, *pol_d).lifetime_min;
    EXPECT_NEAR(cont, disc, 0.02 * cont) << load::name(l);
  }
}

TEST(SimulatorContinuous, HeterogeneousBank) {
  // A bigger second battery must not shorten the system lifetime.
  const load::trace t = load::paper_trace(load::test_load::ils_500);
  const std::vector<kibam::battery_parameters> same(2, kibam::battery_b1());
  const std::vector<kibam::battery_parameters> mixed{
      kibam::battery_b1(), kibam::battery_b2()};
  const auto p1 = best_of_n();
  const auto p2 = best_of_n();
  const double lifetime_same = simulate_continuous(same, t, *p1).lifetime_min;
  const double lifetime_mixed =
      simulate_continuous(mixed, t, *p2).lifetime_min;
  EXPECT_GT(lifetime_mixed, lifetime_same);
}

TEST(SimulatorContinuous, MoreBatteriesLiveLonger) {
  const load::trace t = load::paper_trace(load::test_load::ils_500);
  double prev = 0;
  for (const std::size_t count : {1u, 2u, 3u, 4u}) {
    const std::vector<kibam::battery_parameters> bank(count,
                                                      kibam::battery_b1());
    const auto pol = best_of_n();
    const double lt = simulate_continuous(bank, t, *pol).lifetime_min;
    EXPECT_GT(lt, prev) << count << " batteries";
    prev = lt;
  }
}

// --- Heterogeneous discrete banks (banks built from parameters). ---

TEST(SimulatorDiscrete, BankOverloadMatchesIdenticalBankExactly) {
  // Regression for the discrete/continuous unification: a bank built
  // from a parameter list must reproduce the identical-bank overload bit
  // for bit (both run integer stepping).
  const auto d = disc_b1();
  const kibam::bank bank{
      std::vector<kibam::battery_parameters>(2, kibam::battery_b1())};
  sim_options opts;
  opts.record_trace = true;
  opts.sample_min = 0.1;
  for (const load::test_load l :
       {load::test_load::cl_250, load::test_load::ils_alt,
        load::test_load::ils_r1}) {
    const load::trace t = load::paper_trace(l);
    for (auto make : {sequential, round_robin, best_of_n}) {
      const auto pol_old = make();
      const auto pol_new = make();
      const sim_result via_disc = simulate_discrete(d, 2, t, *pol_old, opts);
      const sim_result via_bank = simulate_discrete(bank, t, *pol_new, opts);
      EXPECT_EQ(via_bank, via_disc)
          << pol_old->name() << " on " << load::name(l);
    }
  }
}

TEST(SimulatorDiscrete, HeterogeneousBankLivesLongerThanSmallPair) {
  // A bigger second battery must not shorten the system lifetime, and the
  // discrete result must track the continuous one.
  const load::trace t = load::paper_trace(load::test_load::ils_500);
  const std::vector<kibam::battery_parameters> same(2, kibam::battery_b1());
  const std::vector<kibam::battery_parameters> mixed{
      kibam::battery_b1(), kibam::battery_b2()};
  const auto p1 = best_of_n();
  const auto p2 = best_of_n();
  const double lifetime_same =
      simulate_discrete(kibam::bank{same}, t, *p1).lifetime_min;
  const double lifetime_mixed =
      simulate_discrete(kibam::bank{mixed}, t, *p2).lifetime_min;
  EXPECT_GT(lifetime_mixed, lifetime_same);

  const auto p3 = best_of_n();
  const double continuous =
      simulate_continuous(mixed, t, *p3).lifetime_min;
  EXPECT_NEAR(lifetime_mixed, continuous, 0.02 * continuous);
}

// --- Recording a trace is observation only. ---

/// Runs every paper load on 2 x B1 under two blind policies and the
/// rollout scheduler, untraced and traced at two sample periods, and
/// requires each traced run to reproduce the untraced one bit for bit.
template <class Simulate>
void expect_recording_does_not_change_the_run(const Simulate& simulate) {
  const registry policies = opt::model_registry();
  for (const load::test_load l : load::all_test_loads()) {
    const load::trace t = load::paper_trace(l);
    for (const char* spec :
         {"best_of_n", "round_robin", "lookahead:horizon=2"}) {
      const sim_result plain = simulate(t, *policies.make(spec), {});
      for (const double sample_min : {0.05, 0.37}) {
        sim_options opts;
        opts.record_trace = true;
        opts.sample_min = sample_min;
        const sim_result traced = simulate(t, *policies.make(spec), opts);
        const std::string where = std::string{spec} + " on " +
                                  load::name(l) + ", sample_min " +
                                  std::to_string(sample_min);
        EXPECT_FALSE(traced.trace.empty()) << where;
        EXPECT_EQ(traced.lifetime_min, plain.lifetime_min) << where;
        EXPECT_EQ(traced.residual_amin, plain.residual_amin) << where;
        EXPECT_EQ(traced.decisions, plain.decisions) << where;
      }
    }
  }
}

TEST(SimulatorDiscrete, RecordingDoesNotChangeTheRun) {
  const auto d = disc_b1();
  expect_recording_does_not_change_the_run(
      [&d](const load::trace& t, policy& pol, const sim_options& opts) {
        return simulate_discrete(d, 2, t, pol, opts);
      });
}

TEST(SimulatorContinuous, RecordingDoesNotChangeTheRun) {
  const std::vector<kibam::battery_parameters> bank(2, kibam::battery_b1());
  expect_recording_does_not_change_the_run(
      [&bank](const load::trace& t, policy& pol, const sim_options& opts) {
        return simulate_continuous(bank, t, pol, opts);
      });
}

}  // namespace
}  // namespace bsched::sched
