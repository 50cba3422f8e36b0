// Shared driver for the Table 3 / Table 4 benches: prints the
// exp::validation_table rows (analytic KiBaM and dKiBaM lifetimes, the
// ones the tests check) next to the published columns. The TA-KiBaM
// (PTA engine) column is computed here only: Table 4's runs take seconds,
// too slow for the test suite.
#pragma once

#include <cstddef>
#include <cstdio>
#include <span>
#include <vector>

#include "exp/experiments.hpp"
#include "exp/report.hpp"
#include "paper_reference.hpp"
#include "takibam/runner.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace bsched::bench {

inline void run_validation_bench(const char* title,
                                 const kibam::battery_parameters& battery,
                                 std::span<const table34_ref> reference) {
  std::printf("%s\n", title);
  std::printf(
      "Single-battery lifetimes (minutes): analytic KiBaM vs the "
      "discretized model,\nboth as published and as reproduced; "
      "'TA engine' runs the full timed-automata\nnetwork through "
      "min-cost reachability.\n\n");

  const std::vector<exp::validation_row> rows =
      exp::validation_table(battery);
  const kibam::discretization disc{battery};
  text_table table{{"test load", "KiBaM paper", "KiBaM ours", "dKiBaM paper",
                    "dKiBaM ours", "TA engine", "diff %"}};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const exp::validation_row& row = rows[i];
    const table34_ref& ref = reference[i];
    require(ref.load == row.load, "validation bench: reference out of order");
    const double ta =
        takibam::analyze(disc, load::paper_trace(row.load)).lifetime_min;
    table.row({load::name(row.load), exp::fmt_min(ref.kibam_min),
               exp::fmt_min(row.analytic_min), exp::fmt_min(ref.ta_kibam_min),
               exp::fmt_min(row.discrete_min), exp::fmt_min(ta),
               exp::fmt_pct(row.diff_percent)});
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf("\n");
}

}  // namespace bsched::bench
