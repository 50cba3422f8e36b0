// Reproduces Table 5: system lifetime of two B1 batteries under the four
// scheduling schemes (sequential, round robin, best-of-two, optimal) with
// differences relative to round robin, for all ten test loads.
//
// The rows are exp::scheduling_table's — the ones the tests check: ten
// loads x four policy specs as one batch of declarative scenarios on
// api::engine, with the optimal column resolved by the registry's
// model-aware exact branch-and-bound "opt" policy (the same schedule
// space as the paper's Cora run; tests/test_takibam.cpp cross-checks it
// against the PTA engine).
#include <cstdio>
#include <string>
#include <vector>

#include "exp/experiments.hpp"
#include "paper_reference.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

int main() {
  using namespace bsched;
  std::printf(
      "=== Table 5: two B1 batteries, four scheduling schemes ===\n"
      "Lifetimes in minutes; diff %% is relative to round robin.\n"
      "Each cell shows reproduced (published) values.\n\n");

  const std::vector<exp::scheduling_row> rows =
      exp::scheduling_table(kibam::battery_b1());
  const auto with_ref = [](double ours, double paper) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.2f (%.2f)", ours, paper);
    return std::string{buf};
  };
  const auto pct = [](double percent) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%+.1f%%", percent);
    return std::string{buf};
  };
  text_table table{{"test load", "sequential", "diff %", "round robin",
                    "best-of-two", "diff %", "optimal", "diff %"}};
  opt::search_stats effort;
  for (std::size_t l = 0; l < rows.size(); ++l) {
    const exp::scheduling_row& r = rows[l];
    const bench::table5_ref& ref = bench::table5[l];
    require(ref.load == r.load, "bench_table5: reference out of order");
    table.row({load::name(r.load), with_ref(r.sequential_min, ref.sequential),
               pct(r.sequential_diff_percent),
               with_ref(r.round_robin_min, ref.round_robin),
               with_ref(r.best_of_two_min, ref.best_of_two),
               pct(r.best_of_two_diff_percent),
               with_ref(r.optimal_min, ref.optimal),
               pct(r.optimal_diff_percent)});
    effort += r.search;
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf(
      "\nAll forty cells ran as one streamed engine sweep; the optimal "
      "column is\nthe registry's model-aware \"opt\" policy (exact "
      "search at model-binding time,\n%llu nodes, %llu memo hits, %llu "
      "pruned across the ten loads,\nvia api::run_result::search).\n",
      static_cast<unsigned long long>(effort.nodes),
      static_cast<unsigned long long>(effort.memo_hits),
      static_cast<unsigned long long>(effort.pruned));
  return 0;
}
