#include <gtest/gtest.h>

#include <cmath>

#include "kibam/kibam.hpp"
#include "kibam/parameters.hpp"
#include "load/jobs.hpp"
#include "support/kibam_reference.hpp"
#include "support/steppers.hpp"
#include "util/error.hpp"

namespace bsched::kibam {
namespace {

TEST(Parameters, PresetsMatchPaper) {
  const battery_parameters b1 = battery_b1();
  EXPECT_DOUBLE_EQ(b1.capacity_amin, 5.5);
  EXPECT_DOUBLE_EQ(b1.c, 0.166);
  EXPECT_DOUBLE_EQ(b1.k_prime, 0.122);
  EXPECT_DOUBLE_EQ(battery_b2().capacity_amin, 11.0);
  // k' = k / (c (1-c)).
  EXPECT_NEAR(b1.k() / (b1.c * (1 - b1.c)), b1.k_prime, 1e-12);
}

TEST(Parameters, ValidationRejectsNonsense) {
  EXPECT_THROW(validate({-1.0, 0.166, 0.122}), bsched::error);
  EXPECT_THROW(validate({5.5, 0.0, 0.122}), bsched::error);
  EXPECT_THROW(validate({5.5, 1.0, 0.122}), bsched::error);
  EXPECT_THROW(validate({5.5, 0.166, 0.0}), bsched::error);
}

TEST(Transform, FullBatteryHasZeroDelta) {
  const battery_parameters p = battery_b1();
  const state s = full(p);
  EXPECT_DOUBLE_EQ(s.delta, 0.0);
  EXPECT_DOUBLE_EQ(s.gamma, p.capacity_amin);
  // A full battery holds c * C in the available well.
  EXPECT_NEAR(available_charge(p, s), p.c * p.capacity_amin, 1e-12);
}

TEST(Transform, EmptyMarginIsScaledAvailableCharge) {
  const battery_parameters p = battery_b1();
  const state s{3.0, 4.0};
  // y1 = c (gamma - (1-c) delta): c times the empty margin of eq. (3).
  EXPECT_NEAR(available_charge(p, s), p.c * (s.gamma - (1 - p.c) * s.delta),
              1e-12);
}

TEST(Advance, MatchesClosedFormDecay) {
  const battery_parameters p = battery_b1();
  // With no load the height difference decays exponentially (eq. (5)).
  state s{2.0, 4.0};
  const state later = advance(p, s, 0.0, 3.0);
  EXPECT_NEAR(later.delta, 2.0 * std::exp(-p.k_prime * 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(later.gamma, 4.0);
}

TEST(Advance, ChargeConservation) {
  const battery_parameters p = battery_b1();
  const state s = full(p);
  const state later = advance(p, s, 0.25, 2.0);
  // Total charge decreases exactly by I * t.
  EXPECT_NEAR(later.gamma, p.capacity_amin - 0.5, 1e-12);
}

TEST(Advance, AgreesWithNumericIntegrationTransformed) {
  const battery_parameters p = battery_b1();
  const double current = 0.4;
  const state s0 = full(p);
  const state analytic = advance(p, s0, current, 1.7);
  const auto numeric = ode::integrate_adaptive(
      transformed_rhs{p, current}, 0, 1.7, ode::state<2>{s0.delta, s0.gamma},
      1e-12);
  EXPECT_NEAR(analytic.delta, numeric[0], 1e-8);
  EXPECT_NEAR(analytic.gamma, numeric[1], 1e-8);
}

TEST(Advance, WellAndTransformedOdesAgree) {
  const battery_parameters p = battery_b1();
  const double current = 0.3;
  // Well coordinates of a transformed state: y1 is the available charge,
  // y2 the rest of gamma.
  const auto to_wells = [&](const state& s) {
    const double y1 = available_charge(p, s);
    return ode::state<2>{y1, s.gamma - y1};
  };
  const auto wells = ode::integrate_adaptive(
      wells_rhs{p, current}, 0, 1.3, to_wells(full(p)), 1e-12);
  const ode::state<2> expect = to_wells(advance(p, full(p), current, 1.3));
  EXPECT_NEAR(wells[0], expect[0], 1e-7);
  EXPECT_NEAR(wells[1], expect[1], 1e-7);
}

TEST(TimeToEmpty, DetectsSurvival) {
  const battery_parameters p = battery_b1();
  EXPECT_FALSE(time_to_empty(p, full(p), 0.25, 1.0).has_value());
}

TEST(TimeToEmpty, ExactOnConstantCurrent) {
  const battery_parameters p = battery_b1();
  const auto t = time_to_empty(p, full(p), 0.25, 100.0);
  ASSERT_TRUE(t.has_value());
  // At the crossing the available well is empty.
  const state s = advance(p, full(p), 0.25, *t);
  EXPECT_NEAR(available_charge(p, s), 0.0, 1e-9);
}

TEST(TimeToEmpty, ZeroWhenAlreadyEmpty) {
  const battery_parameters p = battery_b1();
  const state dead{10.0, (1 - p.c) * 10.0};  // margin exactly 0
  const auto t = time_to_empty(p, dead, 0.25, 1.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, 0.0);
}

// --- The paper's analytic lifetimes (Tables 3 and 4, KiBaM column). ---

struct paper_case {
  load::test_load load;
  double b1_lifetime;
  double b2_lifetime;
};

// Values printed in Tables 3 and 4 (minutes).
const paper_case k_paper_cases[] = {
    {load::test_load::cl_250, 4.53, 12.16},
    {load::test_load::cl_500, 2.02, 4.53},
    {load::test_load::cl_alt, 2.58, 6.45},
    {load::test_load::ils_250, 10.80, 44.78},
    {load::test_load::ils_500, 4.30, 10.80},
    {load::test_load::ils_alt, 4.80, 16.93},
    {load::test_load::ils_r1, 4.72, 22.71},
    {load::test_load::ils_r2, 4.72, 14.81},
    {load::test_load::ill_250, 21.86, 84.90},
    {load::test_load::ill_500, 6.53, 21.86},
};

class AnalyticLifetime : public testing::TestWithParam<paper_case> {};

TEST_P(AnalyticLifetime, MatchesTable3ForB1) {
  const paper_case& c = GetParam();
  const double lt = lifetime(battery_b1(), load::paper_trace(c.load));
  // The paper prints two decimals; allow half a unit in the last place.
  EXPECT_NEAR(lt, c.b1_lifetime, 0.005) << load::name(c.load);
}

TEST_P(AnalyticLifetime, MatchesTable4ForB2) {
  const paper_case& c = GetParam();
  const double lt = lifetime(battery_b2(), load::paper_trace(c.load));
  EXPECT_NEAR(lt, c.b2_lifetime, 0.005) << load::name(c.load);
}

INSTANTIATE_TEST_SUITE_P(
    PaperLoads, AnalyticLifetime, testing::ValuesIn(k_paper_cases),
    [](const testing::TestParamInfo<paper_case>& pinfo) {
      std::string n = load::name(pinfo.param.load);
      for (char& ch : n) {
        if (ch == ' ') ch = '_';
      }
      return n;
    });

TEST(Lifetime, ConstantCurrentClosedFormAgrees) {
  const battery_parameters p = battery_b2();
  const double via_trace =
      lifetime(p, load::trace{{{1e6, 0.25}}});
  EXPECT_NEAR(constant_current_lifetime(p, 0.25), via_trace, 1e-9);
}

TEST(Lifetime, MonotoneInCurrent) {
  const battery_parameters p = battery_b1();
  double prev = 1e18;
  for (const double current : {0.1, 0.2, 0.3, 0.5, 0.7}) {
    const double lt = constant_current_lifetime(p, current);
    EXPECT_LT(lt, prev) << "higher current must not live longer";
    prev = lt;
  }
}

TEST(Lifetime, RateCapacityEffectLosesCharge) {
  // At higher currents strictly less total charge is delivered.
  const battery_parameters p = battery_b1();
  const double low = 0.25 * constant_current_lifetime(p, 0.25);
  const double high = 0.5 * constant_current_lifetime(p, 0.5);
  EXPECT_GT(low, high);
  EXPECT_LT(high, p.capacity_amin);
}

TEST(Lifetime, RecoveryEffectExtendsLifetime) {
  // The same jobs with idle gaps must live longer in total active time.
  const battery_parameters p = battery_b1();
  const double cl = lifetime(p, load::paper_trace(load::test_load::cl_250));
  const double ils =
      lifetime(p, load::paper_trace(load::test_load::ils_250));
  const double ill =
      lifetime(p, load::paper_trace(load::test_load::ill_250));
  // Active minutes: CL is all active; ILs is every other minute; ILl one
  // in three.
  EXPECT_GT(ils / 2.0, cl / 2.0);  // more active time than half of CL
  EXPECT_GT(ill, ils);
  EXPECT_GT(ils, cl);
}

TEST(Lifetime, DoublingCapacityMoreThanDoublesLifetime) {
  // The recovery effect makes lifetime superlinear in capacity at fixed
  // load (cf. Tables 3 vs 4: 4.53 -> 12.16 for CL 250).
  const double b1 = lifetime(battery_b1(),
                             load::paper_trace(load::test_load::cl_250));
  const double b2 = lifetime(battery_b2(),
                             load::paper_trace(load::test_load::cl_250));
  EXPECT_GT(b2, 2 * b1);
}

TEST(Lifetime, ThrowsWhenHorizonExceeded) {
  const battery_parameters p = battery_b1();
  // A microscopic load cannot drain the battery within the horizon.
  EXPECT_THROW((void)lifetime(p, load::trace{{{1.0, 1e-9}}}, 100.0),
               bsched::error);
}

}  // namespace
}  // namespace bsched::kibam
