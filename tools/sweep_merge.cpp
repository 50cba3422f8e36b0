// Merge stage of the distributed sweep pipeline: folds shard aggregate
// files (sweep_worker output, dist::codec format) into the whole sweep's
// per-cell statistics and prints the same report examples/scenario_sweep
// prints for the single-process run.
//
//   $ ./sweep_merge [--csv FILE] shard0.agg shard1.agg ...
//
// Validation is strict: the shards must agree on the sweep shape and tile
// the (cell, replication) item stream exactly once. The merged statistics
// are the single-process ones exactly, so on the demo grid (re-seeded
// stochastic cells only, hence no cache hits on either side) the --csv
// file is byte-identical to `scenario_sweep --csv` — the CI equivalence
// smoke `cmp`s the two.
#include <cstdio>
#include <string>
#include <vector>

#include "dist/codec.hpp"
#include "dist/shard.hpp"
#include "sweep_common.hpp"

using namespace bsched;

int main(int argc, char** argv) {
  std::string csv_path;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--csv") {
      csv_path = value();
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "usage: sweep_merge [--csv FILE] SHARD_FILE...\n");
      return 2;
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "sweep_merge: no shard aggregate files given\n");
    return 2;
  }

  try {
    std::vector<dist::shard_aggregate> parts;
    parts.reserve(inputs.size());
    for (const std::string& path : inputs) {
      parts.push_back(dist::read_file(path));
    }
    const dist::shard_aggregate merged = dist::merge_shards(std::move(parts));
    const std::vector<api::cell_summary> cells = dist::summaries(merged);

    std::printf(
        "merged %zu shard aggregates: %zu cells x %zu replications, "
        "base seed %llu\n\n",
        inputs.size(), merged.grid_cells, merged.replications,
        static_cast<unsigned long long>(merged.seed));
    tools::print_summary_table(cells);
    std::printf(
        "\nLifetimes in minutes; ci95 is the half-width of the normal 95%% "
        "confidence\ninterval, p50 the sample median. %zu runs, %zu "
        "evaluated across shards, %zu\ncache hits (per-process), %zu "
        "failures.\n",
        merged.stats.runs, merged.stats.evaluated, merged.stats.cache_hits,
        merged.stats.failures);

    if (!csv_path.empty()) tools::write_summary_csv(csv_path, cells);
    return merged.stats.failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_merge: %s\n", e.what());
    return 1;
  }
}
