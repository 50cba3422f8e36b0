// Merge stage of the distributed sweep pipeline: folds shard aggregate
// files (sweep_worker output, dist::codec format) into the whole sweep's
// per-cell statistics and prints the same report examples/scenario_sweep
// prints for the single-process run.
//
//   $ ./sweep_merge [--csv FILE] [--expect REF.csv] shard0.agg shard1.agg ...
//
// Validation is strict: the shards must agree on the sweep shape and tile
// the (cell, replication) item stream exactly once. With --expect the
// merged summaries are compared against a reference CSV written by
// `scenario_sweep --csv` (the single-process run): every column but the
// per-process cache accounting must match as a string — the merged
// statistics are the single-process ones exactly. Exits non-zero on any
// mismatch, which is the CI equivalence smoke.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "dist/codec.hpp"
#include "dist/shard.hpp"
#include "sweep_common.hpp"
#include "util/csv.hpp"

namespace {

using namespace bsched;

/// Per-process accounting, excluded from the equivalence contract.
bool skipped_column(const std::string& name) { return name == "cache_hits"; }

bool check_against(const std::string& ref_path,
                   const std::vector<api::cell_summary>& cells) {
  std::ifstream in{ref_path};
  if (!in.good()) {
    std::fprintf(stderr, "sweep_merge: cannot open %s\n", ref_path.c_str());
    return false;
  }
  std::vector<std::vector<std::string>> ref;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    ref.push_back(csv_parse_line(line));
  }
  const std::vector<std::string> header = tools::summary_csv_header();
  if (ref.empty() || ref.front() != header) {
    std::fprintf(stderr,
                 "sweep_merge: %s does not carry the expected summary "
                 "header\n",
                 ref_path.c_str());
    return false;
  }
  if (ref.size() - 1 != cells.size()) {
    std::fprintf(stderr,
                 "sweep_merge: %s has %zu rows, merged sweep has %zu "
                 "cells\n",
                 ref_path.c_str(), ref.size() - 1, cells.size());
    return false;
  }

  bool ok = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::vector<std::string> ours = tools::summary_csv_row(cells[i]);
    const std::vector<std::string>& theirs = ref[i + 1];
    if (theirs.size() != ours.size()) {
      std::fprintf(stderr, "sweep_merge: row %zu: field count mismatch\n",
                   i);
      ok = false;
      continue;
    }
    for (std::size_t col = 0; col < header.size(); ++col) {
      if (skipped_column(header[col]) || theirs[col] == ours[col]) continue;
      std::fprintf(stderr,
                   "sweep_merge: row %zu (%s): %s mismatch — merged '%s' "
                   "vs reference '%s'\n",
                   i, cells[i].label.c_str(), header[col].c_str(),
                   ours[col].c_str(), theirs[col].c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string csv_path;
  std::string expect_path;
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
    } else if (arg == "--expect") {
      expect_path = value();
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr,
                   "usage: sweep_merge [--csv FILE] [--expect REF.csv] "
                   "SHARD_FILE...\n");
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

    if (!expect_path.empty()) {
      if (!check_against(expect_path, cells)) return 1;
      std::printf("merged aggregates match %s\n", expect_path.c_str());
    }
    return merged.stats.failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_merge: %s\n", e.what());
    return 1;
  }
}
