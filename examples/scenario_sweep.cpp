// A replicated random-load sweep through engine::run_sweep: ten cells
// (five seeded random/markov workloads x two policies on 2 x B1), each
// evaluated `--replications` times with derived per-(cell, replication)
// seeds, streamed into the api::summarize sink. The grid and the report
// live in tools/sweep_common.hpp, shared with the distributed pipeline
// (sweep_worker / sweep_merge), so a sharded run merges back into
// exactly this report.
//
//   $ ./scenario_sweep [--threads N] [--replications R] [--csv FILE]
//                      [--trace FILE]
//
// Prints one row per cell with the lifetime distribution statistics
// (n, mean, stddev, 95% CI, min/max, sample median, cache hits) and
// cross-checks the multi-threaded sweep against a single-threaded run,
// summary for summary — the aggregates must be byte-identical whatever
// the thread count. With --csv the same statistics are written through
// util/csv with self-describing scenario columns (label/load/policy/
// fidelity), so a full sweep is reproducible and plottable from the
// command line — and is the reference a fleet's `sweep_merge --csv`
// output is `cmp`-equal to.
// With --trace the first (multi-threaded) sweep runs under the global
// tracer and its spans are exported as chrome://tracing JSON — empty
// when the build has BSCHED_OBS=OFF, since the span macros compile away.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "../tools/sweep_common.hpp"
#include "api/engine.hpp"
#include "api/scenario.hpp"
#include "api/sweep.hpp"
#include "obs/trace.hpp"

int main(int argc, char** argv) {
  using namespace bsched;

  std::size_t n_threads = 8;
  std::size_t replications = 30;
  std::string csv_path;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--threads") {
      n_threads = tools::cli_number(arg, value());
    } else if (arg == "--replications") {
      replications = tools::cli_number(arg, value());
    } else if (arg == "--csv") {
      csv_path = value();
    } else if (arg == "--trace") {
      trace_path = value();
    } else {
      std::fprintf(stderr,
                   "usage: scenario_sweep [--threads N] "
                   "[--replications R] [--csv FILE] [--trace FILE]\n");
      return 2;
    }
  }

  const api::sweep sweep = tools::demo_sweep(replications);
  std::printf(
      "sweep: %zu cells (2 x B1, random/markov loads x round_robin/"
      "best_of_n)\n       x %zu replications = %zu runs, %zu threads, "
      "base seed %llu\n\n",
      sweep.cells.size(), sweep.replications,
      sweep.cells.size() * sweep.replications, n_threads,
      static_cast<unsigned long long>(sweep.seed));

  const api::engine engine;
  api::summarize sink{sweep};
  if (!trace_path.empty()) obs::tracer::global().enable(true);
  const api::sweep_stats stats = engine.run_sweep(sweep, sink, n_threads);
  if (!trace_path.empty()) {
    obs::tracer::global().enable(false);
    std::ofstream out{trace_path};
    if (!out.good()) {
      std::fprintf(stderr, "scenario_sweep: cannot write %s\n",
                   trace_path.c_str());
      return 1;
    }
    obs::write_chrome_trace(obs::tracer::global().drain(), out);
  }

  // The determinism contract, demonstrated: a single-threaded run must
  // produce byte-identical summaries and stats.
  api::summarize reference{sweep};
  const api::sweep_stats ref_stats = engine.run_sweep(sweep, reference, 1);
  const bool deterministic =
      sink.cells() == reference.cells() && stats == ref_stats;

  tools::print_summary_table(sink.cells());
  std::printf(
      "\nLifetimes in minutes; ci95 is the half-width of the normal 95%% "
      "confidence\ninterval, p50 the sample median. %zu runs, %zu distinct "
      "cells evaluated, %zu\ncache hits, %zu failures.\n%zu-thread sweep vs "
      "single-threaded reference: %s.\n",
      stats.runs, stats.evaluated, stats.cache_hits, stats.failures,
      n_threads, deterministic ? "byte-identical" : "MISMATCH");

  if (!csv_path.empty()) tools::write_summary_csv(csv_path, sink.cells());
  return deterministic && stats.failures == 0 ? 0 : 1;
}
