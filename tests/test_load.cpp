#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "load/discretize.hpp"
#include "load/jobs.hpp"
#include "load/random.hpp"
#include "load/trace.hpp"
#include "util/error.hpp"

namespace bsched::load {
namespace {

TEST(Trace, RejectsBadEpochs) {
  EXPECT_THROW(trace({{0.0, 0.1}}), bsched::error);   // zero duration
  EXPECT_THROW(trace({{1.0, -0.1}}), bsched::error);  // negative current
  EXPECT_THROW(trace(std::vector<epoch>{}), bsched::error);  // empty cycle
}

/// The message `make` throws as bsched::error ("" when it does not).
template <typename F>
std::string thrown_text(F make) {
  try {
    make();
  } catch (const bsched::error& e) {
    return e.what();
  }
  return "";
}

TEST(Trace, BadEpochMessagesNameTheirPart) {
  EXPECT_EQ(thrown_text([] { trace({{0.0, 0.1}}, {{1.0, 0.1}}); }),
            "trace prefix: epoch durations must be positive");
  EXPECT_EQ(thrown_text([] { trace({{-1.0, 0.1}}); }),
            "trace cycle: epoch durations must be positive");
  EXPECT_EQ(thrown_text([] { trace({{1.0, 0.1}}, {{1.0, -0.1}}); }),
            "trace cycle: currents must be non-negative");
  EXPECT_EQ(thrown_text([] { trace({{1.0, -0.1}}, {{1.0, 0.1}}); }),
            "trace prefix: currents must be non-negative");
  // NaN fields fail their check like any other out-of-range value.
  EXPECT_EQ(thrown_text([] { trace({{std::nan(""), 0.1}}); }),
            "trace cycle: epoch durations must be positive");
  EXPECT_EQ(thrown_text([] { trace({{1.0, std::nan("")}}); }),
            "trace cycle: currents must be non-negative");
}

TEST(Trace, CyclesForever) {
  const trace t{{{1.0, 0.5}, {2.0, 0.0}}};
  EXPECT_DOUBLE_EQ(t.at(0).current_a, 0.5);
  EXPECT_DOUBLE_EQ(t.at(1).current_a, 0.0);
  EXPECT_DOUBLE_EQ(t.at(2).current_a, 0.5);     // wrapped
  EXPECT_DOUBLE_EQ(t.at(1001).current_a, 0.0);  // deep wrap
}

TEST(Trace, PrefixThenCycle) {
  const trace t{{{0.5, 0.1}}, {{1.0, 0.2}}};
  EXPECT_DOUBLE_EQ(t.at(0).current_a, 0.1);
  EXPECT_DOUBLE_EQ(t.at(1).current_a, 0.2);
  EXPECT_DOUBLE_EQ(t.at(5).current_a, 0.2);
}

TEST(Trace, PeakCurrent) {
  const trace t{{{1.0, 0.25}, {1.0, 0.5}, {2.0, 0.0}}};
  EXPECT_DOUBLE_EQ(t.peak_current(), 0.5);
}

TEST(EpochCursor, WalksWithStartTimes) {
  const trace t{{{1.0, 0.5}, {2.0, 0.0}}};
  epoch_cursor c{t};
  double start = 0;
  EXPECT_EQ(c.index(), 0u);
  start += c.current().duration_min;
  c.advance();
  EXPECT_EQ(c.index(), 1u);
  EXPECT_DOUBLE_EQ(start, 1.0);
  start += c.current().duration_min;
  c.advance();
  EXPECT_EQ(c.index(), 2u);
  EXPECT_DOUBLE_EQ(start, 3.0);
  EXPECT_DOUBLE_EQ(c.current().current_a, 0.5);
}

TEST(Jobs, BuildsAlternatingCycleHighFirst) {
  const trace t = paper_trace(test_load::ils_alt);
  ASSERT_EQ(t.cycle().size(), 4u);  // job, idle, job, idle
  EXPECT_DOUBLE_EQ(t.cycle()[0].current_a, high_current_a);
  EXPECT_DOUBLE_EQ(t.cycle()[2].current_a, low_current_a);
  EXPECT_DOUBLE_EQ(t.cycle()[1].current_a, 0.0);
  EXPECT_DOUBLE_EQ(t.cycle()[1].duration_min, 1.0);
}

TEST(Jobs, ContinuousLoadHasNoIdle) {
  const trace t = paper_trace(test_load::cl_500);
  ASSERT_EQ(t.cycle().size(), 1u);
  EXPECT_DOUBLE_EQ(t.cycle()[0].current_a, high_current_a);
}

TEST(Jobs, LongIdleIsTwoMinutes) {
  const trace t = paper_trace(test_load::ill_250);
  ASSERT_EQ(t.cycle().size(), 2u);
  EXPECT_DOUBLE_EQ(t.cycle()[1].duration_min, 2.0);
}

TEST(Jobs, RecoveredRandomSequences) {
  // 12 and 8 jobs, each followed by a 1-minute idle.
  const trace r1 = paper_trace(test_load::ils_r1);
  const trace r2 = paper_trace(test_load::ils_r2);
  EXPECT_EQ(r1.cycle().size(), 24u);
  EXPECT_EQ(r2.cycle().size(), 16u);
  // Both start L, H, H (the only prefix compatible with the B1 lifetime).
  for (const trace& t : {r1, r2}) {
    EXPECT_DOUBLE_EQ(t.cycle()[0].current_a, low_current_a);
    EXPECT_DOUBLE_EQ(t.cycle()[2].current_a, high_current_a);
    EXPECT_DOUBLE_EQ(t.cycle()[4].current_a, high_current_a);
  }
}

TEST(Jobs, AllTestLoadsAreConstructible) {
  for (const test_load l : all_test_loads()) {
    const trace t = paper_trace(l);
    EXPECT_FALSE(t.cycle().empty()) << name(l);
    EXPECT_GT(t.peak_current(), 0.0) << name(l);
    EXPECT_FALSE(name(l).empty());
  }
}

TEST(Discretize, PaperRates) {
  // At T = 0.01 min and Gamma = 0.01 Amin: 250 mA draws a unit every 4
  // steps, 500 mA every 2 steps (Section 5's setup).
  const step_sizes s{};
  EXPECT_EQ(rate_for(0.25, s).steps, 4);
  EXPECT_EQ(rate_for(0.25, s).units, 1);
  EXPECT_EQ(rate_for(0.5, s).steps, 2);
  EXPECT_EQ(rate_for(0.5, s).units, 1);
}

TEST(Discretize, NonIntegralRateUsesMultipleUnits) {
  // 0.3 A: 0.01/(0.3*0.01) = 3.33 steps/unit -> 3 units per 10 steps.
  const draw_rate r = rate_for(0.3, {});
  const double realized =
      static_cast<double>(r.units) * 0.01 /
      (static_cast<double>(r.steps) * 0.01);
  EXPECT_NEAR(realized, 0.3, 0.3 * 0.05);
}

TEST(Discretize, ArraysMatchPaperShape) {
  const trace t = paper_trace(test_load::ils_alt);
  const load_arrays a = discretize(t, 8);
  ASSERT_EQ(a.epochs(), 8u);
  // Epoch ends at 100, 200, ... steps (1-minute epochs at T = 0.01).
  EXPECT_EQ(a.load_time[0], 100);
  EXPECT_EQ(a.load_time[7], 800);
  EXPECT_EQ(a.cur[0], 1);
  EXPECT_EQ(a.cur_times[0], 2);  // high job first
  EXPECT_EQ(a.cur_times[2], 4);  // then low
  EXPECT_EQ(a.cur[1], 0);
}

TEST(RandomLoads, DeterministicInSeed) {
  const job_sequence a = random_jobs(50, 0.5, 1.0, 99);
  const job_sequence b = random_jobs(50, 0.5, 1.0, 99);
  const job_sequence c = random_jobs(50, 0.5, 1.0, 100);
  EXPECT_EQ(a.currents, b.currents);
  EXPECT_NE(a.currents, c.currents);
}

TEST(RandomLoads, HighProbabilityRespected) {
  const job_sequence all_low = random_jobs(100, 0.0, 1.0, 1);
  const job_sequence all_high = random_jobs(100, 1.0, 1.0, 1);
  for (const double c : all_low.currents) EXPECT_DOUBLE_EQ(c, low_current_a);
  for (const double c : all_high.currents) {
    EXPECT_DOUBLE_EQ(c, high_current_a);
  }
}

TEST(RandomLoads, MarkovBurstsAreSticky) {
  const job_sequence seq = markov_jobs(2000, 0.95, 1.0, 42);
  std::size_t switches = 0;
  for (std::size_t i = 1; i < seq.currents.size(); ++i) {
    if (seq.currents[i] != seq.currents[i - 1]) ++switches;
  }
  // Expected switch rate ~5%; allow generous slack.
  EXPECT_LT(switches, 200u);
  EXPECT_GT(switches, 20u);
}

}  // namespace
}  // namespace bsched::load
