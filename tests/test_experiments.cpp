#include <gtest/gtest.h>

#include "exp/experiments.hpp"
#include "exp/report.hpp"

namespace bsched::exp {
namespace {

TEST(ValidationTable, ReproducesTable3) {
  const auto rows = validation_table(kibam::battery_b1());
  ASSERT_EQ(rows.size(), 10u);
  // Spot-check the analytic column against the paper.
  EXPECT_NEAR(rows[0].analytic_min, 4.53, 0.005);    // CL 250
  EXPECT_NEAR(rows[3].analytic_min, 10.80, 0.005);   // ILs 250
  EXPECT_NEAR(rows[9].analytic_min, 6.53, 0.005);    // ILl 500
  // The paper's validation criterion: discretization error ~1% max.
  for (const validation_row& r : rows) {
    EXPECT_LT(r.diff_percent, 1.2) << load::name(r.load);
  }
}

TEST(ValidationTable, ReproducesTable4) {
  const auto rows = validation_table(kibam::battery_b2());
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_NEAR(rows[0].analytic_min, 12.16, 0.005);
  EXPECT_NEAR(rows[8].analytic_min, 84.90, 0.005);
  for (const validation_row& r : rows) {
    EXPECT_LT(r.diff_percent, 1.2) << load::name(r.load);
  }
}

TEST(SchedulingTable, DeterministicColumnsMatchTable5) {
  const auto rows =
      scheduling_table(kibam::battery_b1(), 2, /*include_optimal=*/false);
  ASSERT_EQ(rows.size(), 10u);
  // ILs alt is the headline row: round robin collapses, best-of-two does
  // not (12.82 vs 16.30 in the paper).
  const scheduling_row& ils_alt = rows[5];
  EXPECT_EQ(ils_alt.load, load::test_load::ils_alt);
  EXPECT_NEAR(ils_alt.round_robin_min, 12.82, 0.09);
  EXPECT_NEAR(ils_alt.best_of_two_min, 16.30, 0.09);
  EXPECT_GT(ils_alt.best_of_two_diff_percent, 25.0);
  // Sequential is always the loser, and blind schedulers never search.
  for (const scheduling_row& r : rows) {
    EXPECT_LT(r.sequential_diff_percent, 0.0) << load::name(r.load);
    EXPECT_EQ(r.search, opt::search_stats{}) << load::name(r.load);
  }
}

TEST(Figure6, TracesAndSchedulesAreComplete) {
  const figure6_data fig = figure6(kibam::battery_b1());
  // Lifetimes bracket the paper's 16.30 (best-of-two) and 16.91 (optimal).
  EXPECT_NEAR(fig.best_of_two.lifetime_min, 16.30, 0.09);
  EXPECT_NEAR(fig.optimal_lifetime_min, 16.91, 0.09);
  EXPECT_NEAR(fig.optimal.lifetime_min, fig.optimal_lifetime_min, 1e-9);
  // Both runs recorded dense traces of both batteries.
  ASSERT_GT(fig.best_of_two.trace.size(), 100u);
  ASSERT_GT(fig.optimal.trace.size(), 100u);
  // Section 6: at death roughly 3.9 Amin (~70%) per battery remains.
  EXPECT_NEAR(fig.best_of_two.residual_amin / 2.0, 3.9, 0.3);
  // The optimal run leaves less charge behind than best-of-two.
  EXPECT_LE(fig.optimal.residual_amin,
            fig.best_of_two.residual_amin + 1e-9);
}

TEST(Figure6, AvailableChargeRecoversDuringIdle) {
  const figure6_data fig = figure6(kibam::battery_b1());
  // Find any idle stretch and check the unused battery's available charge
  // rises (the visible recovery effect in Figure 6).
  bool saw_recovery = false;
  const auto& tr = fig.best_of_two.trace;
  for (std::size_t i = 1; i < tr.size(); ++i) {
    if (tr[i].active == -1 && tr[i - 1].active == -1) {
      if (tr[i].available_amin[0] > tr[i - 1].available_amin[0] + 1e-12) {
        saw_recovery = true;
        break;
      }
    }
  }
  EXPECT_TRUE(saw_recovery);
}

TEST(ResidualSweep, TenTimesCapacityLeavesUnderTenPercent) {
  // Section 6's closing claim, computed on the continuous twin.
  const auto points = residual_sweep({1.0, 10.0});
  ASSERT_EQ(points.size(), 2u);
  EXPECT_GT(points[0].residual_fraction, 0.5);   // ~70% at C = 5.5
  EXPECT_LT(points[1].residual_fraction, 0.10);  // < 10% at 10x
  EXPECT_GT(points[1].lifetime_min, 10 * points[0].lifetime_min);
}

TEST(AblationSweep, PaperGridStaysUnderOnePercent) {
  const auto points = discretization_sweep(
      kibam::battery_b1(), load::test_load::cl_250,
      {{0.01, 0.01}, {0.01, 0.05}, {0.02, 0.1}});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_LT(points[0].error_percent, 1.0);  // the paper's grid
  for (const ablation_point& p : points) {
    EXPECT_NEAR(p.analytic_min, 4.53, 0.005);
  }
}

TEST(Reports, RenderPaperStyleTables) {
  const auto points = discretization_sweep(
      kibam::battery_b1(), load::test_load::cl_250, {{0.01, 0.01}});
  const text_table table = ablation_report(points);
  const std::string s = table.str();
  EXPECT_NE(s.find("error %"), std::string::npos);
  EXPECT_NE(s.find("4.53"), std::string::npos);
  EXPECT_EQ(table.size(), 1u);

  EXPECT_EQ(fmt_min(4.527), "4.53");
  EXPECT_EQ(fmt_pct(-21.43), "-21.4%");
}

}  // namespace
}  // namespace bsched::exp
