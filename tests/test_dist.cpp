// The distributed sweep subsystem: shard planning, shard execution with
// global seed indices, the portable aggregate codec, and the
// shard -> serialize -> merge equivalence against single-process
// run_sweep + summarize (the acceptance property: exact for
// n/failures/min/max — and for quantiles below the digest budget —
// ulp-scale tolerance for the merged moments).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "api/scenario.hpp"
#include "api/sweep.hpp"
#include "dist/codec.hpp"
#include "dist/shard.hpp"
#include "load/jobs.hpp"
#include "load/trace.hpp"
#include "support/fleet.hpp"
#include "support/plan_shards.hpp"
#include "util/error.hpp"

namespace bsched::dist {
namespace {

using support::expect_equivalent;
using support::reference;

const kibam::battery_parameters b1 = kibam::battery_b1();

api::scenario cell(api::load_spec load, std::string policy) {
  return api::scenario{.label = {},
                       .batteries = api::bank(2, b1),
                       .load = std::move(load),
                       .policy = std::move(policy),
                       .model = api::fidelity::discrete,
                       .steps = {},
                       .sim = {}};
}

/// A replicated random-load grid (three stochastic loads x two policies)
/// plus one always-failing cell, so failure counts cross the merge too.
api::sweep random_grid(std::size_t replications) {
  api::sweep sw;
  for (const char* load : {"random:count=12,p=0.4,seed=1",
                           "markov:count=12,p=0.7,seed=2",
                           "random:count=12,p=0.8,seed=3"}) {
    for (const char* policy : {"round_robin", "best_of_n"}) {
      sw.cells.push_back(cell(api::load_spec::parse(load), policy));
    }
  }
  sw.cells.push_back(cell(api::load_spec::parse("random:count=12,p=0.4,seed=1"),
                          "no_such_policy"));
  sw.replications = replications;
  sw.seed = 2009;
  return sw;
}

/// The Table 5 scenario grid: every paper test load x two blind
/// policies, all deterministic — replications replay bit-identically, so
/// even the merged moments must be exact.
api::sweep table5_grid(std::size_t replications) {
  api::sweep sw;
  for (const load::test_load l : load::all_test_loads()) {
    for (const char* policy : {"best_of_n", "round_robin"}) {
      sw.cells.push_back(cell(api::load_spec{l}, policy));
    }
  }
  sw.replications = replications;
  sw.seed = 5;
  return sw;
}

/// Shard -> codec round-trip -> merge, with per-shard worker-thread
/// counts cycling through 1..3 to exercise thread independence.
std::vector<api::cell_summary> sharded(const api::sweep& sw,
                                       std::size_t n_shards) {
  const api::engine eng;
  std::vector<shard_aggregate> parts;
  for (const shard& sh : plan_shards(sw, n_shards)) {
    const shard_aggregate agg = run_shard(eng, sh, sh.index % 3 + 1);
    const shard_aggregate decoded = decode_str(encode_str(agg));
    EXPECT_EQ(decoded, agg) << "codec round-trip of shard " << sh.index;
    parts.push_back(decoded);
  }
  return summaries(merge_shards(std::move(parts)));
}

TEST(DistShard, PlanTilesTheItemStream) {
  const api::sweep sw = random_grid(7);
  const std::size_t total = sw.cells.size() * sw.replications;
  for (const std::size_t n : {1u, 2u, 3u, 7u, 13u, 101u}) {
    const std::vector<shard> plan = plan_shards(sw, n);
    ASSERT_EQ(plan.size(), n);
    std::size_t next = 0;
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(plan[k].index, k);
      EXPECT_EQ(plan[k].count, n);
      EXPECT_EQ(plan[k].first, next) << "gap/overlap before shard " << k;
      EXPECT_LE(plan[k].first, plan[k].last);
      // Balanced: sizes differ by at most one.
      const std::size_t size = plan[k].last - plan[k].first;
      EXPECT_LE(size, total / n + 1);
      next = plan[k].last;
      EXPECT_EQ(plan[k].sweep.cells.size(), sw.cells.size());
    }
    EXPECT_EQ(next, total);
    // The single-shard accessor (what a worker calls) agrees with the
    // full plan without materializing it.
    for (std::size_t k = 0; k < n; ++k) {
      const shard solo = plan_shard(sw, k, n);
      EXPECT_EQ(solo.index, plan[k].index);
      EXPECT_EQ(solo.count, plan[k].count);
      EXPECT_EQ(solo.first, plan[k].first);
      EXPECT_EQ(solo.last, plan[k].last);
    }
  }
  EXPECT_THROW((void)plan_shards(sw, 0), error);
  EXPECT_THROW((void)plan_shard(sw, 3, 3), error);
  EXPECT_THROW((void)plan_shard(sw, 0, 0), error);
}

TEST(DistShard, RunShardIsThreadCountIndependent) {
  const api::sweep sw = random_grid(5);
  const api::engine eng;
  const std::vector<shard> plan = plan_shards(sw, 3);
  for (const shard& sh : plan) {
    const shard_aggregate serial = run_shard(eng, sh, 1);
    const shard_aggregate parallel = run_shard(eng, sh, 4);
    EXPECT_EQ(serial, parallel) << "shard " << sh.index;
  }
}

/// `a` and `b` agree in every field but the per-process cache accounting.
void expect_same_fold(shard_aggregate a, shard_aggregate b) {
  for (shard_aggregate* agg : {&a, &b}) {
    agg->stats.evaluated = 0;
    agg->stats.cache_hits = 0;
    for (cell_record& c : agg->cells) c.agg.cache_hits = 0;
  }
  EXPECT_EQ(a, b);
}

TEST(DistShard, AppendedChunksFoldExactlyLikeOneContiguousRun) {
  // A fleet worker's lease: chunks appended to one aggregate must be the
  // aggregate of a single run over the lease range bit for bit — every
  // Welford moment and sketch, not just to ulp-scale rounding — whatever
  // the chunk size. The range starts and ends mid-cell on purpose.
  const api::sweep sw = random_grid(30);
  const api::engine eng;
  shard lease;
  lease.sweep = sw;
  lease.first = 17;
  lease.last = 191;
  const shard_aggregate whole = run_shard(eng, lease, 1);
  const shard_aggregate blank = empty_aggregate(sw);
  EXPECT_EQ(blank.first_item, 0u);
  EXPECT_EQ(blank.last_item, 0u);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{4},
                                  lease.last - lease.first}) {
    shard_aggregate agg = blank;
    agg.first_item = lease.first;
    agg.last_item = lease.first;
    shard part = lease;
    while (agg.last_item < lease.last) {
      part.first = agg.last_item;
      part.last = std::min(part.first + chunk, lease.last);
      run_shard(eng, part, agg, chunk % 2 + 1);
      EXPECT_EQ(agg.last_item, part.last);
    }
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    expect_same_fold(agg, whole);
  }

  // The appended range must continue the aggregate, of the same sweep.
  shard_aggregate agg = blank;
  agg.first_item = 5;
  agg.last_item = 5;
  shard gap = lease;
  gap.first = 6;
  gap.last = 8;
  EXPECT_THROW(run_shard(eng, gap, agg), error);
  shard alien = gap;
  alien.first = 5;
  alien.sweep.seed ^= 1;
  EXPECT_THROW(run_shard(eng, alien, agg), error);
  EXPECT_EQ(agg.last_item, 5u);
}

TEST(DistShard, EmptySweepShardsAndMerges) {
  api::sweep sw;  // no cells
  const api::engine eng;
  std::vector<shard_aggregate> parts;
  for (const shard& sh : plan_shards(sw, 3)) {
    EXPECT_EQ(sh.first, sh.last);
    parts.push_back(run_shard(eng, sh));
  }
  const shard_aggregate merged = merge_shards(std::move(parts));
  EXPECT_EQ(merged.stats, api::sweep_stats{});
  EXPECT_TRUE(summaries(merged).empty());
}

TEST(DistCodec, RoundTripsBitExactly) {
  const api::sweep sw = random_grid(4);
  const api::engine eng;
  const std::vector<shard> plan = plan_shards(sw, 2);
  const shard_aggregate agg = run_shard(eng, plan[1], 2);
  ASSERT_GT(agg.stats.runs, 0u);

  EXPECT_EQ(decode_str(encode_str(agg)), agg);

  // And the file wrappers agree with the string ones.
  const std::string path = testing::TempDir() + "bsched_codec_rt.agg";
  write_file(agg, path);
  EXPECT_EQ(read_file(path), agg);
}

TEST(DistCodec, RejectsGarbageWithLineDiagnostics) {
  // Wrong magic (a future version included) is refused, not guessed at.
  EXPECT_THROW((void)decode_str(""), error);
  EXPECT_THROW((void)decode_str("not a shard file\n"), error);
  EXPECT_THROW((void)decode_str("bsched-shard v5\n"), error);
  // Truncation after a valid prefix.
  EXPECT_THROW((void)decode_str("bsched-shard v4\n"), error);
  EXPECT_THROW(
      (void)decode_str("bsched-shard v4\nshard index=0 count=1 first=0 "
                       "last=0\n"),
      error);
  // Malformed numbers name the field.
  try {
    (void)decode_str(
        "bsched-shard v4\nshard index=zero count=1 first=0 last=0\n");
    FAIL() << "expected bsched::error";
  } catch (const error& e) {
    EXPECT_NE(std::string{e.what()}.find("index"), std::string::npos);
    EXPECT_NE(std::string{e.what()}.find("line 2"), std::string::npos);
  }
  // A valid header whose cell list stops early.
  EXPECT_THROW(
      (void)decode_str("bsched-shard v4\n"
                       "shard index=0 count=1 first=0 last=2\n"
                       "sweep cells=2 replications=1 seed=0 reseed=1\n"
                       "stats runs=2 evaluated=2 cache_hits=0 failures=0\n"
                       "end\n"),
      error);
}

/// Splits text into lines (keeping no terminators) so tests can splice
/// in duplicated or truncated sections.
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::stringstream in{text};
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines,
                       std::size_t count) {
  std::string out;
  for (std::size_t i = 0; i < std::min(count, lines.size()); ++i) {
    out += lines[i];
    out += '\n';
  }
  return out;
}

/// Decoding `text` must fail with a diagnostic naming both the 1-based
/// line number and the section being decoded.
template <class Decode>
void expect_names_line_and_section(Decode decode_fn, const std::string& text,
                                   const std::string& line_no,
                                   const std::string& section) {
  try {
    (void)decode_fn(text);
    FAIL() << "expected bsched::error for: " << text.substr(0, 80);
  } catch (const error& e) {
    const std::string what{e.what()};
    EXPECT_NE(what.find("line " + line_no), std::string::npos) << what;
    EXPECT_NE(what.find(section), std::string::npos) << what;
  }
}

TEST(DistCodec, ShardDiagnosticsNameLineAndSection) {
  const api::sweep sw = random_grid(2);
  const api::engine eng;
  const shard_aggregate agg = run_shard(eng, plan_shard(sw, 0, 2));
  const std::vector<std::string> lines = lines_of(encode_str(agg));
  const auto decode_fn = [](const std::string& text) {
    return decode_str(text);
  };

  // A malformed shard header names line 2 and the "shard header" section.
  expect_names_line_and_section(
      decode_fn, "bsched-shard v4\nshard index=zero count=1 first=0 last=0\n",
      "2", "shard header");

  // Truncation inside the first cell's records names that cell.
  expect_names_line_and_section(decode_fn, join_lines(lines, 6), "6",
                                "cell 0");

  // A duplicated stats section is caught where a cell/end record was
  // due, with the out-of-place hint.
  std::vector<std::string> duplicated = lines;
  duplicated.insert(duplicated.begin() + 4, lines[3]);  // second "stats"
  expect_names_line_and_section(decode_fn,
                                join_lines(duplicated, duplicated.size()),
                                "5", "cell list");
  try {
    (void)decode_str(join_lines(duplicated, duplicated.size()));
    FAIL() << "expected bsched::error";
  } catch (const error& e) {
    EXPECT_NE(std::string{e.what()}.find("duplicated or out-of-place"),
              std::string::npos);
  }
}

TEST(DistCodec, RejectsVersionThreeShardNamingTheVersionLine) {
  // v4 dropped the search record's memo-eviction count. The reader looks
  // fields up by key and ignores extra ones, so only the version line
  // tells a v3 document apart: it is refused on line 1, and the error
  // shows both the version it saw and the one this reader speaks.
  const api::sweep sw = random_grid(2);
  const api::engine eng;
  std::vector<std::string> lines =
      lines_of(encode_str(run_shard(eng, plan_shard(sw, 0, 1))));
  ASSERT_EQ(lines.front(), "bsched-shard v4");
  lines.front() = "bsched-shard v3";
  try {
    (void)decode_str(join_lines(lines, lines.size()));
    FAIL() << "expected bsched::error";
  } catch (const error& e) {
    const std::string what{e.what()};
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
    EXPECT_NE(what.find("'bsched-shard v3'"), std::string::npos) << what;
    EXPECT_NE(what.find("'bsched-shard v4'"), std::string::npos) << what;
  }
}

TEST(DistCodec, RejectsVersionOneSweepNamingTheVersionLine) {
  // Sweep v2 dropped the pair-by-load flag too; a v1 definition is
  // refused on line 1, naming both versions.
  std::vector<std::string> lines = lines_of(encode_sweep_str(random_grid(2)));
  ASSERT_EQ(lines.front(), "bsched-sweep v2");
  lines.front() = "bsched-sweep v1";
  try {
    (void)decode_sweep_str(join_lines(lines, lines.size()));
    FAIL() << "expected bsched::error";
  } catch (const error& e) {
    const std::string what{e.what()};
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
    EXPECT_NE(what.find("'bsched-sweep v1'"), std::string::npos) << what;
    EXPECT_NE(what.find("'bsched-sweep v2'"), std::string::npos) << what;
  }
}

TEST(DistCodec, SweepRoundTripsBitExactly) {
  // The service's wire form of the full sweep definition: cells (bank,
  // load, policy, fidelity, steps, sim options), replications, seed and
  // the reseed flag all round-trip exactly — workers need no compiled-in
  // grid.
  api::sweep sw = random_grid(5);
  sw.cells[1].label = "a label with spaces and = signs";
  sw.cells[1].steps.time_step_min = 0.3;
  sw.cells[2].sim.horizon_min = 12345.678;
  // An explicit trace load: describe() cannot round-trip it, so the
  // codec carries its epochs verbatim.
  sw.cells.push_back(cell(
      api::load_spec{load::trace{{{1.5, 0.1}, {2.25, 0.0}}, {{10.0, 0.25}}}},
      "round_robin"));

  const api::sweep back = decode_sweep_str(encode_sweep_str(sw));
  EXPECT_EQ(back.cells, sw.cells);
  EXPECT_EQ(back.replications, sw.replications);
  EXPECT_EQ(back.seed, sw.seed);
  EXPECT_EQ(back.reseed, sw.reseed);

  // Deterministic paper grids round-trip too (test_load describe names).
  const api::sweep t5 = table5_grid(2);
  EXPECT_EQ(decode_sweep_str(encode_sweep_str(t5)).cells, t5.cells);

  // run_batch compatibility mode (reseed off) survives the wire.
  api::sweep verbatim = random_grid(1);
  verbatim.reseed = false;
  EXPECT_EQ(decode_sweep_str(encode_sweep_str(verbatim)).reseed, false);
}

TEST(DistCodec, SweepDecodeRejectsGarbageNamingLineAndSection) {
  const auto decode_fn = [](const std::string& text) {
    return decode_sweep_str(text);
  };
  EXPECT_THROW((void)decode_sweep_str(""), error);
  EXPECT_THROW((void)decode_sweep_str("bsched-shard v4\n"), error);
  EXPECT_THROW((void)decode_sweep_str("bsched-sweep v3\n"), error);

  const std::vector<std::string> lines =
      lines_of(encode_sweep_str(random_grid(2)));

  // Truncated after the header: the cell list is what went missing.
  expect_names_line_and_section(decode_fn, join_lines(lines, 2), "2",
                                "cell list");
  // Truncated mid-cell: the diagnostic names the cell being decoded.
  expect_names_line_and_section(decode_fn, join_lines(lines, 4), "4",
                                "cell 0");

  // A duplicated sweep header where a cell record was due.
  std::vector<std::string> duplicated = lines;
  duplicated.insert(duplicated.begin() + 2, lines[1]);
  expect_names_line_and_section(decode_fn,
                                join_lines(duplicated, duplicated.size()),
                                "3", "cell list");

  // Garbage inside a battery record names the cell and the field.
  std::vector<std::string> garbled = lines;
  for (std::size_t i = 0; i < garbled.size(); ++i) {
    if (garbled[i].rfind("battery ", 0) == 0) {
      garbled[i] = "battery capacity=lots c=0.5 k_prime=0.001";
      expect_names_line_and_section(decode_fn,
                                    join_lines(garbled, garbled.size()),
                                    std::to_string(i + 1), "cell 0");
      break;
    }
  }

  // An unknown fidelity is refused by name.
  std::vector<std::string> foreign = lines;
  for (std::string& line : foreign) {
    const std::size_t at = line.find("model=");
    if (at != std::string::npos) {
      line = line.substr(0, at) + "model=quantum";
      break;
    }
  }
  try {
    (void)decode_sweep_str(join_lines(foreign, foreign.size()));
    FAIL() << "expected bsched::error";
  } catch (const error& e) {
    EXPECT_NE(std::string{e.what()}.find("quantum"), std::string::npos);
  }
}

TEST(DistCodec, StrictAtTheDocumentEdges) {
  const api::sweep sw = random_grid(2);
  const api::engine eng;
  const shard_aggregate agg = run_shard(eng, plan_shard(sw, 0, 2));
  const std::string wire = encode_str(agg);
  const auto decode_fn = [](const std::string& text) {
    return decode_str(text);
  };

  // CR-LF line ends read like LF.
  std::string crlf;
  for (const char c : wire) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  EXPECT_EQ(decode_str(crlf), agg);

  // Anything after the closing "end" is refused, naming its first line.
  const std::string extra = std::to_string(lines_of(wire).size() + 1);
  expect_names_line_and_section(decode_fn, wire + "cell index=9\n", extra,
                                "cell list");
  EXPECT_THROW((void)decode_sweep_str(encode_sweep_str(sw) + "\n"), error);

  // A header count is untrusted: the largest one fails on the count it
  // promises, never sizing an allocation by it.
  const auto with_field = [&wire](const std::string& key,
                                  const std::string& value) {
    std::string out = wire;
    const std::size_t at = out.find(" " + key + "=") + key.size() + 2;
    out.replace(at, out.find_first_of(" \n", at) - at, value);
    return out;
  };
  expect_names_line_and_section(
      decode_fn, with_field("centroids", "18446744073709551615"), "", "cell 0");
  expect_names_line_and_section(
      decode_fn, with_field("cells", "18446744073709551615"), "", "cell list");
}

TEST(DistMerge, StreamMergerFoldsOutOfOrderIncrementally) {
  // The coordinator's incremental fold: parts arrive out of stream
  // order, the contiguous prefix advances eagerly, gaps and overlaps are
  // rejected, and the final take() equals the one-shot merge_shards.
  // A buffered part shows only through next() and complete().
  const api::sweep sw = random_grid(4);
  const std::size_t total = sw.cells.size() * sw.replications;
  const api::engine eng;
  std::vector<shard_aggregate> parts;
  for (const shard& sh : plan_shards(sw, 4)) {
    parts.push_back(run_shard(eng, sh));
  }
  const shard_aggregate expected = merge_shards(
      {parts[0], parts[1], parts[2], parts[3]});

  stream_merger m;
  EXPECT_EQ(m.next(), 0u);
  m.add(parts[2]);  // out of order: buffered, prefix unchanged
  EXPECT_EQ(m.next(), 0u);
  EXPECT_FALSE(m.complete(parts[2].last_item));
  m.add(parts[0]);  // prefix folds through part 0 only
  EXPECT_EQ(m.next(), parts[0].last_item);
  EXPECT_FALSE(m.complete(total));
  EXPECT_THROW((void)m.take(total), error);  // gap at parts[1]
  m.add(parts[1]);  // bridges the gap; prefix reaches parts[2] too
  EXPECT_EQ(m.next(), parts[2].last_item);
  EXPECT_TRUE(m.complete(parts[2].last_item));  // nothing left buffered
  EXPECT_THROW(m.add(parts[1]), error);  // duplicate overlaps the prefix
  m.add(parts[3]);
  EXPECT_TRUE(m.complete(total));
  EXPECT_EQ(m.take(total), expected);

  // Shape mismatches are rejected on add, even while buffered.
  stream_merger strict;
  strict.add(parts[0]);
  shard_aggregate alien = parts[1];
  alien.seed ^= 1;
  EXPECT_THROW(strict.add(std::move(alien)), error);
}

TEST(DistMerge, RejectsGapsOverlapsAndShapeMismatch) {
  const api::sweep sw = random_grid(4);
  const api::engine eng;
  std::vector<shard_aggregate> parts;
  for (const shard& sh : plan_shards(sw, 3)) {
    parts.push_back(run_shard(eng, sh));
  }

  EXPECT_THROW((void)merge_shards({}), error);

  // A missing middle shard is a coverage gap.
  EXPECT_THROW((void)merge_shards({parts[0], parts[2]}), error);

  // The same shard twice overlaps.
  EXPECT_THROW((void)merge_shards({parts[0], parts[0], parts[1], parts[2]}),
               error);

  // A shard of a different sweep shape is refused: another seed, a
  // different cell count, or a cell whose policy differs.
  std::vector<shard_aggregate> mixed = parts;
  mixed[1].seed ^= 1;
  EXPECT_THROW((void)merge_shards(std::move(mixed)), error);
  std::vector<shard_aggregate> shorter = parts;
  shorter[1].cells.pop_back();
  EXPECT_THROW((void)merge_shards(std::move(shorter)), error);
  std::vector<shard_aggregate> different = parts;
  different[1].cells[0].policy = "sequential";
  EXPECT_THROW((void)merge_shards(std::move(different)), error);

  // Passing order must not matter: reversed parts merge fine.
  const shard_aggregate merged =
      merge_shards({parts[2], parts[0], parts[1]});
  EXPECT_EQ(merged.first_item, 0u);
  EXPECT_EQ(merged.last_item, sw.cells.size() * sw.replications);
}

TEST(DistEquivalence, ShardMergeReproducesSingleProcessOnRandomGrid) {
  // The acceptance property: for a replicated random-load grid, any
  // shard count in {1, 2, 3, 7} (and any worker-thread count; cycled in
  // sharded()) serialized through the codec and merged reproduces the
  // single-process run_sweep + summarize statistics.
  const api::sweep sw = random_grid(7);
  const std::vector<api::cell_summary> ref = reference(sw);
  // Sanity: the failing cell actually fails, so failures cross the merge.
  EXPECT_EQ(ref.back().failures, sw.replications);
  for (const std::size_t n : {1u, 2u, 3u, 7u}) {
    expect_equivalent(sharded(sw, n), ref, /*exact_moments=*/false);
  }
}

TEST(DistEquivalence, Table5GridGoldenAcrossShardCounts) {
  // Deterministic cells replay bit-identically, so here even the merged
  // mean/stddev must be *exact* (each shard sees copies of the same
  // value; the Chan combine of zero-variance groups has no rounding).
  const api::sweep sw = table5_grid(3);
  const std::vector<api::cell_summary> ref = reference(sw);
  for (const std::size_t n : {1u, 2u, 3u, 7u}) {
    expect_equivalent(sharded(sw, n), ref, /*exact_moments=*/true);
  }
}

}  // namespace
}  // namespace bsched::dist
