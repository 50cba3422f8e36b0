// The sweep surface: per-replication seed derivation, deterministic
// grid-order streaming across thread counts (and the delivery contract
// under load), item ranges, the by-value cache of cells that can repeat,
// the engine's bank cache and per-thread bank slot, per-cell statistics
// finalized on read, and failure isolation. All suite names start with
// "Sweep" so CI can re-run them serially and in parallel via
// `ctest -R Sweep` (scripts/ci.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "../tools/sweep_common.hpp"
#include "api/engine.hpp"
#include "api/scenario.hpp"
#include "api/sweep.hpp"
#include "kibam/bank.hpp"
#include "load/trace.hpp"
#include "obs/metrics.hpp"
#include "sched/policy.hpp"
#include "support/quantile_reference.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/spec.hpp"

namespace bsched::api {
namespace {

const kibam::battery_parameters b1 = kibam::battery_b1();

scenario base_cell(load_spec load, std::string policy) {
  return scenario{.label = {},
                  .batteries = bank(2, b1),
                  .load = std::move(load),
                  .policy = std::move(policy),
                  .model = fidelity::discrete,
                  .steps = {},
                  .sim = {}};
}

/// The 10-cell random/markov grid of the acceptance criteria: five
/// stochastic loads x two policies.
sweep random_grid(std::size_t replications) {
  sweep sw;
  for (const char* load : {"random:count=20,p=0.3,seed=1",
                           "random:count=20,p=0.6,seed=2",
                           "random:count=20,p=0.8,seed=3",
                           "markov:count=20,p=0.7,seed=4",
                           "markov:count=20,p=0.9,seed=5"}) {
    for (const char* policy : {"round_robin", "best_of_n"}) {
      sw.cells.push_back(base_cell(load_spec::parse(load), policy));
    }
  }
  sw.replications = replications;
  sw.seed = 2026;
  return sw;
}

TEST(SweepReplicate, DerivesDistinctSeedsPerCellAndReplication) {
  const sweep sw = random_grid(4);
  std::set<std::uint64_t> seeds;
  for (std::size_t c = 0; c < sw.cells.size(); ++c) {
    for (std::size_t r = 0; r < sw.replications; ++r) {
      const scenario eff = replicate(sw, c, r);
      const auto* spec = std::get_if<random_load_spec>(&eff.load.source());
      ASSERT_NE(spec, nullptr);
      seeds.insert(spec->seed);
      // Deterministic: the same (sweep, cell, replication) always derives
      // the same scenario.
      EXPECT_EQ(cell_key(replicate(sw, c, r)), cell_key(eff));
    }
  }
  // Every (cell, replication) drew its own load seed.
  EXPECT_EQ(seeds.size(), sw.cells.size() * sw.replications);
}

TEST(SweepReplicate, ReseedsRandomPolicyOnItsOwnStream) {
  sweep sw;
  sw.cells.push_back(base_cell(
      load_spec::parse("random:count=10,p=0.5,seed=7"), "random:seed=7"));
  sw.seed = 9;
  const scenario eff = replicate(sw, 0, 0);
  const auto* load = std::get_if<random_load_spec>(&eff.load.source());
  ASSERT_NE(load, nullptr);
  // Both were re-seeded, and despite equal declared seeds the load and
  // the policy draw from different derivation streams.
  EXPECT_NE(load->seed, 7u);
  EXPECT_NE(eff.policy, "random:seed=7");
  EXPECT_NE(eff.policy, "random:seed=" + std::to_string(load->seed));
}

TEST(SweepReplicate, DeterministicCellsAndReseedOffPassThrough) {
  sweep sw;
  sw.cells.push_back(base_cell(load::test_load::cl_250, "best_of_n"));
  sw.cells.push_back(base_cell(
      load_spec::parse("markov:count=10,p=0.7,seed=3"), "round_robin"));
  sw.replications = 3;

  // A deterministic cell replicates bit-identically.
  EXPECT_EQ(cell_key(replicate(sw, 0, 0)), cell_key(sw.cells[0]));
  EXPECT_EQ(cell_key(replicate(sw, 0, 2)), cell_key(sw.cells[0]));

  // reseed = false runs even stochastic cells verbatim.
  sw.reseed = false;
  EXPECT_EQ(cell_key(replicate(sw, 1, 2)), cell_key(sw.cells[1]));
}

TEST(SweepReplicate, StochasticDetectsRandomLoadsAndPolicies) {
  EXPECT_FALSE(stochastic(base_cell(load::test_load::cl_250, "best_of_n")));
  EXPECT_TRUE(stochastic(base_cell(
      load_spec::parse("random:count=10,p=0.5,seed=1"), "best_of_n")));
  EXPECT_TRUE(
      stochastic(base_cell(load::test_load::cl_250, "random:seed=3")));
  // Unparseable policies are not stochastic; their error surfaces at
  // run time instead.
  EXPECT_FALSE(stochastic(base_cell(load::test_load::cl_250, ":=")));
}

TEST(SweepDeterminism, AggregatesByteIdenticalAcrossThreadCounts) {
  const engine eng;
  const sweep sw = random_grid(5);

  std::vector<std::vector<cell_summary>> per_threads;
  std::vector<sweep_stats> stats;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    summarize sink{sw};
    stats.push_back(eng.run_sweep(sw, sink, threads));
    per_threads.push_back(sink.cells());
  }
  for (std::size_t i = 1; i < per_threads.size(); ++i) {
    EXPECT_EQ(per_threads[0], per_threads[i]);
    EXPECT_EQ(stats[0], stats[i]);
  }
  for (const cell_summary& c : per_threads[0]) {
    EXPECT_EQ(c.n, 5u) << c.label;
    EXPECT_EQ(c.failures, 0u) << c.label;
  }
}

TEST(SweepDeterminism, SinkSeesGridOrderUnderManyThreads) {
  const engine eng;
  const sweep sw = random_grid(3);
  std::vector<std::pair<std::size_t, std::size_t>> order;
  eng.run_sweep(
      sw,
      [&](const sweep_result& r) {
        order.emplace_back(r.cell, r.replication);
      },
      8);
  ASSERT_EQ(order.size(), sw.cells.size() * sw.replications);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i].first, i / sw.replications);
    EXPECT_EQ(order[i].second, i % sw.replications);
  }
}

/// Checks the delivery contract as it is fed: every item once and in grid
/// order, and never two threads inside consume() at once. Throws at item
/// `throw_at` (item_range::to_end: never) and counts any delivery after
/// that.
class contract_sink final : public result_sink {
 public:
  contract_sink(std::size_t replications, std::size_t throw_at)
      : replications_(replications), throw_at_(throw_at) {}

  void consume(const sweep_result& r) override {
    if (inside_.exchange(true)) ++overlaps;
    const std::size_t item = r.cell * replications_ + r.replication;
    if (item != delivered) ++misordered;
    if (delivered > throw_at_) ++after_throw;
    ++delivered;
    std::this_thread::yield();  // widen the window for a second entrant
    inside_.store(false);
    if (item == throw_at_) {
      throw error{"sink broke at " + std::to_string(item)};
    }
  }

  std::atomic<std::size_t> overlaps{0};
  std::size_t delivered = 0;
  std::size_t misordered = 0;
  std::size_t after_throw = 0;

 private:
  std::size_t replications_;
  std::size_t throw_at_;
  std::atomic<bool> inside_{false};
};

TEST(SweepDelivery, GridOrderOneSinkAtATimeUnderLoad) {
  // Cheap items on more threads than cores: completions pile up while
  // another thread delivers, which is when a finisher must hand its
  // result over without blocking and without the flush losing it.
  const engine eng;
  const sweep sw = tools::demo_sweep(200);
  const std::size_t count = sw.cells.size() * sw.replications;
  for (int run = 0; run < 50; ++run) {
    contract_sink sink{sw.replications, item_range::to_end};
    const sweep_stats stats = eng.run_sweep(sw, sink, 8);
    ASSERT_EQ(sink.overlaps.load(), 0u) << "run " << run;
    ASSERT_EQ(sink.misordered, 0u) << "run " << run;
    ASSERT_EQ(sink.delivered, count) << "run " << run;
    ASSERT_EQ(stats.runs, count) << "run " << run;
  }
}

TEST(SweepDelivery, ThrowingSinkGetsNoLaterDeliveries) {
  const engine eng;
  const sweep sw = tools::demo_sweep(200);
  const std::size_t count = sw.cells.size() * sw.replications;
  for (std::size_t run = 0; run < 50; ++run) {
    const std::size_t k = run * 997 % count;  // early, late and in between
    contract_sink sink{sw.replications, k};
    try {
      (void)eng.run_sweep(sw, sink, 8);
      ADD_FAILURE() << "run_sweep must rethrow the sink's exception";
    } catch (const error& e) {
      EXPECT_EQ(std::string{e.what()}, "sink broke at " + std::to_string(k));
    }
    ASSERT_EQ(sink.overlaps.load(), 0u) << "k " << k;
    ASSERT_EQ(sink.misordered, 0u) << "k " << k;
    ASSERT_EQ(sink.delivered, k + 1) << "k " << k;
    ASSERT_EQ(sink.after_throw, 0u) << "k " << k;
  }
}

TEST(SweepCache, DuplicateDeterministicCellsEvaluateOnce) {
  const engine eng;
  sweep sw;
  // Three grid entries, two distinct: the duplicate pair plus every
  // replication of each deterministic cell all hit the cache.
  sw.cells.push_back(base_cell(load::test_load::ils_alt, "best_of_n"));
  sw.cells.push_back(base_cell(load::test_load::cl_250, "round_robin"));
  sw.cells.push_back(base_cell(load::test_load::ils_alt, "best_of_n"));
  sw.replications = 10;

  summarize sink{sw};
  const sweep_stats stats = eng.run_sweep(sw, sink, 2);
  EXPECT_EQ(stats.runs, 30u);
  EXPECT_EQ(stats.evaluated, 2u);
  EXPECT_EQ(stats.cache_hits, 28u);
  EXPECT_EQ(stats.failures, 0u);

  // Cell 0 evaluated its first replication; cell 2 is a pure replay.
  EXPECT_EQ(sink.cells()[0].cache_hits, 9u);
  EXPECT_EQ(sink.cells()[1].cache_hits, 9u);
  EXPECT_EQ(sink.cells()[2].cache_hits, 10u);

  // Replayed replications are bit-identical, so the spread collapses.
  for (const cell_summary& c : sink.cells()) {
    EXPECT_EQ(c.n, 10u);
    EXPECT_EQ(c.min_min, c.max_min) << c.label;
    EXPECT_EQ(c.stddev_min, 0.0) << c.label;
  }
  // And the duplicate cells agree exactly.
  EXPECT_EQ(sink.cells()[0].mean_min, sink.cells()[2].mean_min);
}

TEST(SweepCache, RandomCellsGetFreshSeedsNotCacheHits) {
  const engine eng;
  sweep sw;
  sw.cells.push_back(base_cell(
      load_spec::parse("random:count=20,p=0.5,seed=1"), "round_robin"));
  sw.replications = 8;
  summarize sink{sw};
  const sweep_stats stats = eng.run_sweep(sw, sink, 2);
  // Every replication drew a distinct seed, so nothing could be cached…
  EXPECT_EQ(stats.evaluated, 8u);
  EXPECT_EQ(stats.cache_hits, 0u);
  // …and the lifetimes actually vary across replications.
  EXPECT_GT(sink.cells()[0].stddev_min, 0.0);
  EXPECT_GT(sink.cells()[0].ci95_min, 0.0);
}

/// One delivery of a run_sweep call, copied out of the transient view.
struct delivery {
  std::size_t cell;
  std::size_t replication;
  bool cache_hit;
  run_result result;

  friend bool operator==(const delivery&, const delivery&) = default;
};

std::vector<delivery> deliveries(const engine& eng, const sweep& sw,
                                 item_range items, std::size_t threads,
                                 sweep_stats& stats) {
  std::vector<delivery> out;
  callback_sink sink{[&out](const sweep_result& r) {
    out.push_back(delivery{r.cell, r.replication, r.cache_hit, r.result});
  }};
  stats = eng.run_sweep(sw, sink, threads, items);
  return out;
}

/// A grid with every caching case: deterministic cells (one duplicated),
/// a random load, and a "random:" policy on a fixed load.
sweep mixed_grid() {
  sweep sw;
  sw.cells.push_back(base_cell(load::test_load::ils_alt, "best_of_n"));
  sw.cells.push_back(base_cell(
      load_spec::parse("random:count=20,p=0.5,seed=1"), "round_robin"));
  sw.cells.push_back(base_cell(load::test_load::cl_250, "random:seed=3"));
  sw.cells.push_back(base_cell(load::test_load::ils_alt, "best_of_n"));
  sw.cells.push_back(base_cell(load::test_load::cl_250, "round_robin"));
  sw.replications = 5;
  sw.seed = 7;
  return sw;
}

TEST(SweepRange, WholeSweepKeysOnlyCellsThatCanRepeat) {
  const engine eng;
  const sweep sw = mixed_grid();
  summarize sink{sw};
  const sweep_stats stats = eng.run_sweep(sw, sink, 3);
  // Ten re-seeded items, each evaluated; two distinct deterministic
  // cells, each evaluated once for its 10 (duplicated) or 5 items.
  EXPECT_EQ(stats.runs, 25u);
  EXPECT_EQ(stats.evaluated, 12u);
  EXPECT_EQ(stats.cache_hits, 13u);
  const std::vector<std::size_t> hits = {4, 0, 0, 5, 4};
  for (std::size_t c = 0; c < sw.cells.size(); ++c) {
    EXPECT_EQ(sink.cells()[c].cache_hits, hits[c]) << "cell " << c;
  }
}

TEST(SweepRange, TilingsDeliverTheWholeSweepItemForItem) {
  const engine eng;
  for (const sweep& sw : {tools::demo_sweep(6), mixed_grid()}) {
    const std::size_t total = sw.cells.size() * sw.replications;
    sweep_stats whole_stats;
    const std::vector<delivery> whole =
        deliveries(eng, sw, item_range{}, 2, whole_stats);
    ASSERT_EQ(whole.size(), total);

    rng gen{sw.seed};
    for (std::size_t trial = 0; trial < 6; ++trial) {
      // A random tiling of [0, total) into 1..6 ranges.
      std::vector<std::size_t> cuts = {0, total};
      for (std::size_t k = trial % 6; k > 0; --k) {
        cuts.push_back(static_cast<std::size_t>(
            gen.uniform() * static_cast<double>(total)));
      }
      std::sort(cuts.begin(), cuts.end());
      for (std::size_t r = 0; r + 1 < cuts.size(); ++r) {
        const std::size_t a = cuts[r];
        const std::size_t b = cuts[r + 1];
        sweep_stats stats;
        const std::vector<delivery> part =
            deliveries(eng, sw, item_range{a, b}, trial % 3 + 1, stats);
        ASSERT_EQ(part.size(), b - a);
        // Within the range, an item is a cache hit exactly when an earlier
        // item of the range ran an identical deterministic cell.
        std::set<std::string> seen;
        std::size_t hits = 0;
        for (std::size_t i = a; i < b; ++i) {
          const delivery& got = part[i - a];
          const delivery& want = whole[i];
          EXPECT_EQ(got.cell, want.cell);
          EXPECT_EQ(got.replication, want.replication);
          EXPECT_EQ(got.result, want.result) << "item " << i;
          const scenario& scn = sw.cells[want.cell];
          const bool repeats = !stochastic(scn);
          const bool hit = repeats && !seen.insert(cell_key(scn)).second;
          EXPECT_EQ(got.cache_hit, hit) << "item " << i;
          if (!repeats) {
            EXPECT_FALSE(want.cache_hit) << "item " << i;
          }
          hits += hit ? 1 : 0;
        }
        EXPECT_EQ(stats.runs, b - a);
        EXPECT_EQ(stats.cache_hits, hits);
        EXPECT_EQ(stats.evaluated, b - a - hits);
      }
    }
  }
}

TEST(SweepRange, RangeBeyondTheStreamThrows) {
  const engine eng;
  const sweep sw = mixed_grid();
  sweep_stats stats;
  EXPECT_THROW((void)deliveries(eng, sw, item_range{0, 26}, 1, stats), error);
  EXPECT_THROW((void)deliveries(eng, sw, item_range{4, 3}, 1, stats), error);
  EXPECT_TRUE(deliveries(eng, sw, item_range{25, 25}, 1, stats).empty());
  EXPECT_EQ(stats, sweep_stats{});
}

TEST(SweepStatistics, TenCellGridThirtyReplications) {
  // The acceptance sweep: 10 stochastic cells x 30 replications, per-cell
  // mean lifetime with a 95% CI.
  const engine eng;
  const sweep sw = random_grid(30);
  ASSERT_EQ(sw.cells.size(), 10u);

  summarize sink{sw};
  const sweep_stats stats = eng.run_sweep(sw, sink);
  EXPECT_EQ(stats.runs, 300u);
  EXPECT_EQ(stats.failures, 0u);

  for (const cell_summary& c : sink.cells()) {
    EXPECT_EQ(c.n, 30u) << c.label;
    EXPECT_EQ(c.failures, 0u) << c.label;
    EXPECT_GT(c.mean_min, 0.0) << c.label;
    EXPECT_LE(c.min_min, c.mean_min) << c.label;
    EXPECT_GE(c.max_min, c.mean_min) << c.label;
    // Random workloads spread: a real distribution with a finite CI.
    EXPECT_GT(c.stddev_min, 0.0) << c.label;
    EXPECT_GT(c.ci95_min, 0.0) << c.label;
    EXPECT_NEAR(c.ci95_min,
                1.959963984540054 * c.stddev_min / std::sqrt(30.0), 1e-12)
        << c.label;
    EXPECT_LT(c.ci95_min, c.stddev_min) << c.label;
  }
}

TEST(SweepFailures, InvalidCellsAreIsolatedPerCell) {
  const engine eng;
  for (const std::size_t threads : {1u, 4u}) {
    sweep sw;
    sw.cells.push_back(base_cell(load::test_load::cl_250, "best_of_n"));
    scenario empty_bank = base_cell(load::test_load::cl_250, "best_of_n");
    empty_bank.batteries.clear();
    sw.cells.push_back(empty_bank);
    sw.cells.push_back(
        base_cell(load::test_load::cl_250, "no_such_policy"));
    sw.cells.push_back(base_cell(load::test_load::ils_alt, "round_robin"));
    sw.replications = 3;

    summarize sink{sw};
    const sweep_stats stats = eng.run_sweep(sw, sink, threads);
    EXPECT_EQ(stats.runs, 12u);
    EXPECT_EQ(stats.failures, 6u);

    EXPECT_EQ(sink.cells()[0].n, 3u);
    EXPECT_EQ(sink.cells()[0].failures, 0u);
    EXPECT_EQ(sink.cells()[1].n, 0u);
    EXPECT_EQ(sink.cells()[1].failures, 3u);
    EXPECT_EQ(sink.cells()[2].n, 0u);
    EXPECT_EQ(sink.cells()[2].failures, 3u);
    EXPECT_EQ(sink.cells()[3].n, 3u);
    EXPECT_EQ(sink.cells()[3].failures, 0u);
  }
}

TEST(SweepFailures, RunBatchSurfacesErrorsWithoutSinkingTheBatch) {
  const engine eng;
  scenario good = base_cell(load::test_load::cl_250, "best_of_n");
  scenario empty_bank = good;
  empty_bank.batteries.clear();
  scenario bad_policy = good;
  bad_policy.policy = "no_such_policy";
  // Two distinct scenarios of one shape whose bank cannot be built: the
  // shared build fails once, and each job must still report the error
  // run() raises for it.
  scenario bad_grid = good;
  bad_grid.steps.time_step_min = 0;
  scenario bad_grid_other_policy = bad_grid;
  bad_grid_other_policy.policy = "round_robin";
  std::string grid_error;
  try {
    (void)eng.run(bad_grid);
  } catch (const error& e) {
    grid_error = e.what();
  }
  ASSERT_FALSE(grid_error.empty());
  const std::vector<scenario> batch{
      good, empty_bank, bad_policy, bad_grid, good, bad_grid_other_policy};

  for (const std::size_t threads : {1u, 4u}) {
    const std::vector<run_result> results = eng.run_batch(batch, threads);
    ASSERT_EQ(results.size(), 6u);
    EXPECT_TRUE(results[0].ok());
    EXPECT_FALSE(results[1].ok());
    EXPECT_NE(results[1].error.find("battery"), std::string::npos);
    EXPECT_FALSE(results[2].ok());
    EXPECT_NE(results[2].error.find("no_such_policy"), std::string::npos);
    EXPECT_EQ(results[3].error, grid_error);
    EXPECT_TRUE(results[4].ok());
    EXPECT_EQ(results[0], results[4]);
    EXPECT_EQ(results[5].error, grid_error);
  }
}

TEST(SweepFailures, ThrowingSinkResurfacesOnCallingThread) {
  // Sinks should not throw; if one does anyway, run_sweep must not
  // std::terminate from a worker — the first exception resurfaces after
  // the sweep drains, with no further deliveries.
  const engine eng;
  sweep sw;
  sw.cells.push_back(base_cell(load::test_load::cl_250, "best_of_n"));
  sw.cells.push_back(base_cell(load::test_load::ils_alt, "round_robin"));
  sw.replications = 2;
  for (const std::size_t threads : {1u, 4u}) {
    std::size_t delivered = 0;
    EXPECT_THROW(eng.run_sweep(
                     sw,
                     [&](const sweep_result&) {
                       if (++delivered == 2) throw error{"sink broke"};
                     },
                     threads),
                 error);
    EXPECT_EQ(delivered, 2u);
  }
}

TEST(SweepBatch, MatchesIndependentEngineRuns) {
  // run_batch is now a collecting sink over run_sweep; it must still
  // reproduce per-scenario engine::run bit-exactly, duplicates included.
  const engine eng;
  std::vector<scenario> batch;
  batch.push_back(base_cell(load::test_load::ils_alt, "best_of_n"));
  batch.push_back(base_cell(load::test_load::cl_alt, "opt"));
  batch.push_back(base_cell(load::test_load::ils_alt, "best_of_n"));
  batch.push_back(base_cell(
      load_spec::parse("markov:count=15,p=0.7,seed=11"), "random:seed=42"));

  const std::vector<run_result> results = eng.run_batch(batch, 2);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(results[i], eng.run(batch[i])) << i;
  }
}

TEST(SweepKey, DistinguishesEveryLifetimeRelevantField) {
  const scenario base = base_cell(load::test_load::ils_alt, "best_of_n");
  const std::string key = cell_key(base);

  scenario other = base;
  other.policy = "round_robin";
  EXPECT_NE(cell_key(other), key);

  other = base;
  other.model = fidelity::continuous;
  EXPECT_NE(cell_key(other), key);

  other = base;
  other.batteries.push_back(b1);
  EXPECT_NE(cell_key(other), key);

  other = base;
  other.steps.time_step_min = 0.02;
  EXPECT_NE(cell_key(other), key);

  other = base;
  other.sim.record_trace = true;
  EXPECT_NE(cell_key(other), key);

  other = base;
  other.load = load::test_load::cl_250;
  EXPECT_NE(cell_key(other), key);

  // The display label is *not* part of the key: labelled duplicates of
  // one cell still dedupe.
  other = base;
  other.label = "pretty name";
  EXPECT_EQ(cell_key(other), key);
}

TEST(SweepKey, LengthPrefixesKeepRawBytesUnambiguous) {
  // Doubles are keyed as raw bytes, so the variable-length parts carry
  // their counts: a battery more or fewer, or epochs moved across the
  // trace's prefix/cycle boundary, never collide.
  std::set<std::string> banks;
  for (const std::size_t n : {1u, 2u, 3u}) {
    scenario s = base_cell(load::test_load::ils_alt, "best_of_n");
    s.batteries = bank(n, b1);
    banks.insert(cell_key(s));
  }
  EXPECT_EQ(banks.size(), 3u);

  const load::epoch a{1.5, 0.1};
  const load::epoch b{2.25, 0.0};
  const load::epoch c{10.0, 0.25};
  const scenario early =
      base_cell(load_spec{load::trace{{a, b}, {c}}}, "best_of_n");
  const scenario late =
      base_cell(load_spec{load::trace{{a}, {b, c}}}, "best_of_n");
  EXPECT_NE(cell_key(early), cell_key(late));
  // Equal values key equally (the cache relies on it), labels aside.
  scenario same = late;
  same.label = "relabelled";
  EXPECT_EQ(cell_key(same), cell_key(late));

  // Every bit of a double counts: -0.0 is not 0.0 for the key.
  scenario neg = base_cell(load::test_load::ils_alt, "best_of_n");
  scenario pos = neg;
  neg.sim.sample_min = -0.0;
  pos.sim.sample_min = 0.0;
  EXPECT_NE(cell_key(neg), cell_key(pos));
}

/// Banks the engine's cache has built so far in this process (0 when the
/// instrumentation is compiled out).
std::uint64_t bank_builds() {
  for (const auto& c : obs::registry::global().scrape().counters) {
    if (c.name == "engine.bank_builds_total") return c.value;
  }
  return 0;
}

TEST(SweepBankCache, OneShapeBuildsOneBankAcrossCallsAndCopies) {
  const engine eng;
  const sweep sw = random_grid(3);  // every cell 2 x B1 on default steps
  const std::uint64_t before = bank_builds();
  summarize serial{sw};
  eng.run_sweep(sw, serial, 1);
  summarize parallel{sw};
  eng.run_sweep(sw, parallel, 4);
  const engine copy = eng;  // copies share the cache
  summarize copied{sw};
  copy.run_sweep(sw, copied, 2);
  (void)eng.run(replicate(sw, 0, 0));
  EXPECT_EQ(parallel.cells(), serial.cells());
  EXPECT_EQ(copied.cells(), serial.cells());
#ifdef BSCHED_OBS_ENABLED
  EXPECT_EQ(bank_builds() - before, 1u);
  const engine fresh;  // an independent engine builds its own
  (void)fresh.run(replicate(sw, 0, 0));
  EXPECT_EQ(bank_builds() - before, 2u);
#else
  (void)before;
#endif
}

TEST(SweepBankCache, DistinctShapesBuildDistinctBanks) {
  const load_spec load = load_spec::parse("random:count=10,p=0.5,seed=3");
  sweep sw;
  sw.cells.push_back(base_cell(load, "best_of_n"));
  sw.cells.push_back(base_cell(load, "best_of_n"));
  sw.cells.back().batteries = bank(3, b1);
  sw.cells.push_back(base_cell(load, "best_of_n"));
  sw.cells.back().steps.time_step_min = 0.02;
  sw.cells.push_back(base_cell(load, "round_robin"));  // the first shape
  sw.replications = 4;
  sw.seed = 11;

  const engine eng;
  const std::uint64_t before = bank_builds();
  const auto collect = [&](std::size_t threads) {
    std::vector<run_result> out;
    eng.run_sweep(
        sw, [&](const sweep_result& r) { out.push_back(r.result); }, threads);
    return out;
  };
  const std::vector<run_result> first = collect(4);
  EXPECT_EQ(collect(1), first);
  // Every item ran on its own shape's bank: an independent engine per
  // cell reproduces it.
  for (std::size_t c = 0; c < sw.cells.size(); ++c) {
    const engine solo;
    for (std::size_t r = 0; r < sw.replications; ++r) {
      EXPECT_EQ(solo.run(replicate(sw, c, r)), first[c * sw.replications + r])
          << "cell " << c << " replication " << r;
    }
  }
#ifdef BSCHED_OBS_ENABLED
  // Three shapes for this engine, one per solo engine.
  EXPECT_EQ(bank_builds() - before, 3u + sw.cells.size());
#else
  (void)before;
#endif
}

TEST(SweepBankCache, FailingShapeIsNotCachedAndCarriesRunError) {
  scenario bad =
      base_cell(load_spec::parse("random:count=10,p=0.5,seed=4"), "best_of_n");
  bad.steps.time_step_min = 0;
  const engine eng;
  std::string expected;
  try {
    (void)eng.run(bad);
    ADD_FAILURE() << "a zero time step must not build";
  } catch (const error& e) {
    expected = e.what();
  }
  ASSERT_FALSE(expected.empty());

  sweep sw;
  sw.cells = {bad, base_cell(load::test_load::ils_alt, "best_of_n"), bad};
  sw.cells.back().policy = "round_robin";
  sw.replications = 3;
  const std::uint64_t before = bank_builds();
  for (const std::size_t threads : {1u, 4u}) {
    std::size_t failures = 0;
    const sweep_stats stats = eng.run_sweep(
        sw,
        [&](const sweep_result& r) {
          if (r.cell == 1) {
            EXPECT_TRUE(r.result.ok()) << r.result.error;
            return;
          }
          ++failures;
          EXPECT_EQ(r.result.error, expected);
        },
        threads);
    EXPECT_EQ(failures, 6u);
    EXPECT_EQ(stats.failures, 6u);
  }
#ifdef BSCHED_OBS_ENABLED
  // Only the valid shape was ever built; the failing one is retried (and
  // fails again) on every use rather than cached.
  EXPECT_EQ(bank_builds() - before, 1u);
#else
  (void)before;
#endif
}

/// An engine whose "probe" policy records, in `*bound`, the bank each of
/// its runs was bound to. The probe serves the first usable battery.
engine probe_engine(const kibam::bank** bound) {
  class probe final : public sched::policy {
   public:
    explicit probe(const kibam::bank** bound) : bound_(bound) {}
    std::size_t choose(const sched::decision_context& ctx) override {
      for (const sched::battery_view& b : ctx.batteries) {
        if (!b.empty) return b.index;
      }
      throw error("probe: all batteries empty");
    }
    std::string name() const override { return "probe"; }
    void bind_model(const sched::model_info& model) override {
      *bound_ = model.bank;
    }

   private:
    const kibam::bank** bound_;
  };
  engine_options opts;
  opts.policies.add("probe", [bound](const spec& s) {
    s.require_only({});
    return std::make_unique<probe>(bound);
  });
  return engine{std::move(opts)};
}

TEST(SweepBankIdentity, EachEngineRunsOnItsOwnBankOnOneThread) {
  // Every lookup below runs on this thread, so each one goes through the
  // thread's last-used bank first: the slot must never hand one engine
  // another's bank, whatever order the engines run in.
  const kibam::bank* bound = nullptr;
  const auto bank_of = [&bound](const engine& eng, const scenario& scn) {
    bound = nullptr;
    (void)eng.run(scn);
    return bound;
  };
  const scenario two = base_cell(load::test_load::ils_alt, "probe");
  scenario three = two;
  three.batteries = bank(3, b1);
  scenario bad = two;
  bad.steps.time_step_min = 0;

  // Two engines of one shape each run on their own bank.
  const engine a = probe_engine(&bound);
  const engine b = probe_engine(&bound);
  const kibam::bank* a2 = bank_of(a, two);
  ASSERT_NE(a2, nullptr);
  EXPECT_EQ(a2->size(), 2u);
  const kibam::bank* b2 = bank_of(b, two);
  EXPECT_NE(b2, a2);
  EXPECT_EQ(bank_of(a, two), a2);
  EXPECT_EQ(bank_of(b, two), b2);

  // Copies of an engine share its bank.
  const engine a_copy = a;
  EXPECT_EQ(bank_of(a_copy, two), a2);

  // A failing shape leaves the next valid run on the right bank.
  EXPECT_THROW((void)a.run(bad), error);
  EXPECT_EQ(bank_of(a, two), a2);
  const kibam::bank* a3 = bank_of(a, three);
  ASSERT_NE(a3, nullptr);
  EXPECT_NE(a3, a2);
  EXPECT_EQ(a3->size(), 3u);
  EXPECT_THROW((void)a.run(bad), error);
  EXPECT_EQ(bank_of(a, three), a3);
  EXPECT_EQ(bank_of(a_copy, two), a2);

  // A destroyed engine's bank outlives it in this thread's slot, but a
  // new engine, even one allocated where the old one lived, builds its
  // own.
  const kibam::bank* gone2 = nullptr;
  {
    const engine gone = probe_engine(&bound);
    gone2 = bank_of(gone, two);
  }
  const std::uint64_t before = bank_builds();
  const engine fresh = probe_engine(&bound);
  EXPECT_NE(bank_of(fresh, two), gone2);
#ifdef BSCHED_OBS_ENABLED
  EXPECT_EQ(bank_builds() - before, 1u);
#else
  (void)before;
#endif
}

TEST(SweepSummarize, SummariesCarryScenarioDescriptors) {
  // cell_summary is self-describing: the load description (a parse()
  // round-trip), the policy spec and the fidelity name ride on the row,
  // so CSV output and merged shard aggregates need no grid rebuild.
  sweep sw = random_grid(2);
  const summarize sink{sw};
  ASSERT_EQ(sink.cells().size(), sw.cells.size());
  for (std::size_t i = 0; i < sw.cells.size(); ++i) {
    const cell_summary& c = sink.cells()[i];
    EXPECT_EQ(c.label, sw.cells[i].describe());
    EXPECT_EQ(c.load, sw.cells[i].load.describe());
    EXPECT_EQ(load_spec::parse(c.load), sw.cells[i].load);
    EXPECT_EQ(c.policy, sw.cells[i].policy);
    EXPECT_EQ(c.fidelity, "discrete");
  }
}

TEST(SweepSummarize, QuantilesTrackTheLifetimeDistribution) {
  const engine eng;
  const sweep sw = random_grid(12);
  summarize sink{sw};
  eng.run_sweep(sw, sink, 2);
  for (const cell_summary& c : sink.cells()) {
    ASSERT_EQ(c.n, 12u) << c.label;
    EXPECT_GE(c.p10_min, c.min_min) << c.label;
    EXPECT_LE(c.p10_min, c.p50_min) << c.label;
    EXPECT_LE(c.p50_min, c.p90_min) << c.label;
    EXPECT_LE(c.p90_min, c.max_min) << c.label;
    EXPECT_GT(c.p50_residual_amin, 0.0) << c.label;
  }

  // A deterministic cell's distribution collapses to its single value.
  sweep det;
  det.cells.push_back(base_cell(load::test_load::cl_250, "best_of_n"));
  det.replications = 5;
  summarize dsink{det};
  eng.run_sweep(det, dsink, 1);
  const cell_summary& c = dsink.cells()[0];
  EXPECT_EQ(c.p10_min, c.mean_min);
  EXPECT_EQ(c.p50_min, c.mean_min);
  EXPECT_EQ(c.p90_min, c.mean_min);
}

TEST(SweepSummarize, CellsFinalizeOnReadAsIfEagerly) {
  // summarize finalizes a cell when cells() is read, not per delivery.
  // After every prefix of the deliveries the read must equal the eager
  // finalize of each cell's accumulator, over 70 replications a cell.
  const engine eng;
  const sweep sw = random_grid(70);
  const summarize blank{sw};
  summarize lazy{sw};
  std::vector<cell_accumulator> eager(sw.cells.size());
  std::size_t prefixes = 0;
  eng.run_sweep(
      sw,
      [&](const sweep_result& r) {
        lazy.consume(r);
        eager[r.cell].add(r.result, r.cache_hit);
        const std::vector<cell_summary>& got = lazy.cells();
        for (std::size_t c = 0; c < sw.cells.size(); ++c) {
          cell_summary want = blank.cells()[c];
          eager[c].finalize(want);
          ASSERT_EQ(got[c], want) << "cell " << c << " after " << prefixes;
        }
        ++prefixes;
      },
      3);
  EXPECT_EQ(prefixes, sw.cells.size() * sw.replications);
  EXPECT_EQ(lazy.accumulators(), eager);
}

namespace {

run_result observation(double lifetime_min, double residual_amin) {
  run_result r;
  r.sim.lifetime_min = lifetime_min;
  r.sim.residual_amin = residual_amin;
  return r;
}

}  // namespace

TEST(SweepSummarize, AccumulatorMergeIsCommutativeAndAssociative) {
  // The merge behind shard merging adds counts, so every grouping and
  // order of the same parts gives the same accumulator, in every field.
  // Lifetimes on a coarse grid make heavy ties; residuals are continuous.
  rng gen{42};
  const auto fill = [&](std::size_t count) {
    cell_accumulator acc;
    for (std::size_t i = 0; i < count; ++i) {
      run_result r = observation(
          100.0 + 0.5 * static_cast<double>(gen.below(9)), gen.uniform());
      if (gen.below(5) == 0) r.error = "boom";
      acc.add(r, gen.below(2) == 0);
    }
    return acc;
  };
  const std::vector<cell_accumulator> parts{fill(7), fill(3), fill(5),
                                            fill(11)};
  cell_accumulator sequential;
  for (const cell_accumulator& p : parts) sequential.merge(p);
  ASSERT_GT(sequential.n(), 0u);

  // Every order of a left fold.
  std::vector<std::size_t> order{0, 1, 2, 3};
  do {
    cell_accumulator folded;
    for (const std::size_t k : order) folded.merge(parts[k]);
    EXPECT_EQ(folded, sequential);
  } while (std::next_permutation(order.begin(), order.end()));

  // Every grouping: (a + b) + (c + d), a + (b + (c + d)), ((a + b) + c) + d.
  const auto sum = [](cell_accumulator x, const cell_accumulator& y) {
    x.merge(y);
    return x;
  };
  const cell_accumulator& a = parts[0];
  const cell_accumulator& b = parts[1];
  const cell_accumulator& c = parts[2];
  const cell_accumulator& d = parts[3];
  EXPECT_EQ(sum(sum(a, b), sum(c, d)), sequential);
  EXPECT_EQ(sum(a, sum(b, sum(c, d))), sequential);
  EXPECT_EQ(sum(sum(sum(a, b), c), d), sequential);
  EXPECT_EQ(sum(sum(d, c), sum(b, a)), sequential);

  // So the finalized summaries agree byte for byte too.
  cell_summary want;
  sequential.finalize(want);
  cell_summary got;
  sum(sum(d, b), sum(c, a)).finalize(got);
  EXPECT_EQ(got, want);

  // The empty accumulator is the exact identity on either side.
  cell_accumulator from_empty;
  from_empty.merge(a);
  EXPECT_EQ(from_empty, a);
  cell_accumulator onto_empty = a;
  onto_empty.merge(cell_accumulator{});
  EXPECT_EQ(onto_empty, a);

  // Failures and cache hits sum through merges.
  cell_accumulator failing;
  run_result failed;
  failed.error = "boom";
  failing.add(failed, true);
  cell_accumulator total = a;
  total.merge(failing);
  EXPECT_EQ(total.n(), a.n());
  EXPECT_EQ(total.failures, a.failures + 1);
  EXPECT_EQ(total.cache_hits, a.cache_hits + 1);
}

TEST(SweepSummarize, EmptySweepAndZeroReplicationsAreNoOps) {
  const engine eng;
  sweep sw;
  summarize sink{sw};
  EXPECT_EQ(eng.run_sweep(sw, sink, 4), sweep_stats{});

  sw.cells.push_back(base_cell(load::test_load::cl_250, "best_of_n"));
  sw.replications = 0;
  summarize sink2{sw};
  EXPECT_EQ(eng.run_sweep(sw, sink2, 4), sweep_stats{});
  EXPECT_EQ(sink2.cells()[0].n, 0u);
}

// ---------------------------------------------------------- value_counts

/// The entries `v` would have: distinct values ascending, with counts.
std::vector<value_count> counted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  std::vector<value_count> out;
  for (const double x : v) {
    if (out.empty() || out.back().value != x) {
      out.push_back({x, 1});
    } else {
      ++out.back().count;
    }
  }
  return out;
}

TEST(ValueCounts, QuantilesInterpolateBetweenSampleRanks) {
  value_counts d;
  for (const double v : {5.0, 1.0, 3.0, 2.0, 4.0}) d.add(v);
  EXPECT_EQ(d.entries().size(), 5u);
  EXPECT_EQ(d.total(), 5u);
  EXPECT_EQ(d.quantile(0.0), 1.0);
  EXPECT_EQ(d.quantile(0.5), 3.0);
  EXPECT_EQ(d.quantile(1.0), 5.0);
  // Rank 0.2 * 5 = 1 lies halfway between samples 0 (rank 0.5) and 1.
  EXPECT_EQ(d.quantile(0.2), 1.5);
  // Monotone in q.
  double prev = d.quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = d.quantile(q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
  // Empty and single-sample edges.
  const value_counts empty;
  EXPECT_TRUE(std::isnan(empty.quantile(0.5)));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(d.quantile(nan)));
  value_counts one;
  one.add(7.25);
  EXPECT_EQ(one.quantile(0.1), 7.25);
  EXPECT_EQ(one.quantile(0.9), 7.25);
  // Ties are one entry; a quantile inside a run of ties is that value.
  value_counts ties;
  for (const double v : {2.0, 2.0, 2.0, 9.0}) ties.add(v);
  EXPECT_EQ(ties.entries(), (std::vector<value_count>{{2.0, 3}, {9.0, 1}}));
  EXPECT_EQ(ties.quantile(0.5), 2.0);
  // -0 and +0 are one key, +0; NaN is refused.
  value_counts zeros;
  zeros.add(-0.0);
  zeros.add(0.0);
  ASSERT_EQ(zeros.entries().size(), 1u);
  EXPECT_FALSE(std::signbit(zeros.entries()[0].value));
  EXPECT_THROW(zeros.add(std::numeric_limits<double>::quiet_NaN()), error);
}

TEST(ValueCounts, MergeEqualsBulkAdd) {
  // Shard equivalence at the distribution level: merging partial counts
  // is identical to having added every sample to one distribution, in
  // either order, ties included.
  rng gen{7};
  std::vector<double> values(40);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = i % 3 == 0 ? 0.25 * static_cast<double>(gen.below(4))
                           : gen.uniform() * 100.0;
  }
  value_counts bulk;
  value_counts a;
  value_counts b;
  for (std::size_t i = 0; i < values.size(); ++i) {
    bulk.add(values[i]);
    (i % 2 == 0 ? a : b).add(values[i]);
  }
  EXPECT_EQ(bulk.entries(), counted(values));
  value_counts merged = a;
  merged.merge(b);
  EXPECT_EQ(merged, bulk);
  value_counts reversed = b;
  reversed.merge(a);
  EXPECT_EQ(reversed, bulk);
  value_counts onto_empty;
  onto_empty.merge(bulk);
  EXPECT_EQ(onto_empty, bulk);
}

TEST(ValueCounts, ManySamplesStayExact) {
  // No compression at any size: 10 000 continuous samples keep one entry
  // per distinct value, and every quantile is the exact order statistic.
  rng gen{11};
  std::vector<double> values(10000);
  value_counts d;
  for (double& v : values) {
    v = gen.uniform();
    d.add(v);
  }
  EXPECT_EQ(d.total(), values.size());
  EXPECT_EQ(d.entries(), counted(values));
  std::sort(values.begin(), values.end());
  for (const double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(d.quantile(q), support::sorted_quantile(values, q))
        << "q=" << q;
    EXPECT_NEAR(d.quantile(q), q, 0.05) << "q=" << q;
  }
}

TEST(ValueCounts, LayeredMergesKeepKeysSortedAndCountsExact) {
  // The layered folds of the sweep service (worker chunk folds, then
  // coordinator lease folds) over heavy ties at inexactly representable
  // values: keys stay strictly increasing, counts add up exactly, and
  // the result is the bulk distribution.
  rng gen{2009};
  value_counts total;
  std::vector<double> all;
  for (std::size_t lease = 0; lease < 8; ++lease) {
    value_counts folded;
    for (std::size_t chunk = 0; chunk < 16; ++chunk) {
      value_counts d;
      for (std::size_t i = 0; i < 40; ++i) {
        const double v = 0.1 * static_cast<double>(1 + gen.below(7));
        d.add(v);
        all.push_back(v);
      }
      folded.merge(d);
    }
    total.merge(folded);
  }
  const std::vector<value_count>& es = total.entries();
  ASSERT_LE(es.size(), 7u);
  for (std::size_t i = 1; i < es.size(); ++i) {
    ASSERT_LT(es[i - 1].value, es[i].value) << "i=" << i;
  }
  EXPECT_EQ(total.total(), 8u * 16u * 40u);
  EXPECT_EQ(es, counted(all));
  EXPECT_EQ(value_counts::from_entries(es), total);
}

TEST(ValueCounts, FromEntriesValidatesAndRoundTrips) {
  value_counts d;
  for (const double v : {1.0, 2.0, 2.0, 8.0}) d.add(v);
  EXPECT_EQ(value_counts::from_entries(d.entries()), d);
  EXPECT_EQ(value_counts::from_entries({}), value_counts{});
  EXPECT_FALSE(std::signbit(
      value_counts::from_entries({{-0.0, 1}}).entries()[0].value));

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_THROW((void)value_counts::from_entries({{1.0, 1}, {0.5, 1}}), error);
  EXPECT_THROW((void)value_counts::from_entries({{1.0, 1}, {1.0, 1}}), error);
  EXPECT_THROW((void)value_counts::from_entries({{nan, 1}}), error);
  EXPECT_THROW((void)value_counts::from_entries({{1.0, 1}, {nan, 1}}), error);
  EXPECT_THROW((void)value_counts::from_entries({{1.0, 0}}), error);
  EXPECT_THROW((void)value_counts::from_entries({{1.0, max}, {2.0, 1}}),
               error);
  EXPECT_EQ(value_counts::from_entries({{1.0, max}}).total(), max);
}

TEST(ValueCounts, QuantilesMatchTheSortedReference) {
  // Property: for random multisets of 1 to 3 000 samples, from heavy
  // ties to all-distinct, every quantile equals the plain sorted-vector
  // reference bit for bit, and so does a merge of a random split.
  rng gen{27};
  const std::vector<double> qs{0.0, 0.1, 0.25, 0.5, 0.73, 0.9, 1.0};
  for (const std::uint64_t levels : {std::uint64_t{3}, std::uint64_t{40},
                                     std::uint64_t{400}, std::uint64_t{0}}) {
    value_counts d;
    value_counts left;
    value_counts right;
    std::vector<double> sorted;
    for (std::size_t n = 1; n <= 3000; ++n) {
      // Lifetime-like values on a 0.01 grid, or continuous ones.
      const double v =
          levels == 0 ? 10.0 + 20.0 * gen.uniform()
                      : 10.0 + 0.01 * static_cast<double>(gen.below(levels));
      d.add(v);
      (gen.below(2) == 0 ? left : right).add(v);
      sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), v), v);
      if (n > 64 && n % 37 != 0 && n != 3000) continue;
      SCOPED_TRACE("levels " + std::to_string(levels) + ", n " +
                   std::to_string(n));
      ASSERT_EQ(d.total(), n);
      for (const double q : qs) {
        ASSERT_EQ(d.quantile(q), support::sorted_quantile(sorted, q))
            << "q=" << q;
      }
      const double q = gen.uniform();
      ASSERT_EQ(d.quantile(q), support::sorted_quantile(sorted, q))
          << "q=" << q;
      value_counts merged = left;
      merged.merge(right);
      ASSERT_EQ(merged, d);
    }
  }
}

}  // namespace
}  // namespace bsched::api
