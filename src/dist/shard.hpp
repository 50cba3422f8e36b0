// Distributed sweeps: sharding a replicated scenario grid across
// processes (or hosts) and merging the per-cell aggregates back.
//
// A sweep is one deterministic value: every (cell, replication) item
// derives its seeds from *global* indices (api::replicate -> rng::derive),
// so any contiguous slice of the flattened item stream can be reproduced
// anywhere — no shared state, no coordination. `plan_shard` cuts the
// stream [0, cells x replications) into n balanced contiguous ranges
// (cells outer, replication ranges inner) and returns range k;
// `run_shard` runs its range of the original sweep through
// engine::run_sweep (so every item is the exact scenario the full sweep
// would have run) and folds the results into one mergeable
// api::cell_accumulator per grid cell — into a fresh aggregate,
// or appended to one that ends where the range starts (how a fleet worker
// folds a lease chunk by chunk); `merge_shards` checks
// that a set of shard aggregates tiles the stream exactly once and folds
// them in stream order. The merged result reproduces a single-process
// engine::run_sweep + api::summarize exactly, in every summary field: a
// cell's state is its value counts plus integer sums, merging only adds
// them, and every statistic is a function of that state. Cache
// accounting (evaluated/cache_hits) is per-process: a duplicate item pair
// split across two shards is evaluated twice, so those counters are
// reported but not part of the equivalence contract.
//
// Serialization of shard aggregates lives in dist/codec.hpp; the CLI
// pipeline is tools/sweep_worker + tools/sweep_merge.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "api/sweep.hpp"

namespace bsched::dist {

/// Shard k of n: a contiguous range of a sweep's flattened item stream.
/// Item i is (cell, replication) = (i / replications, i % replications).
/// Carries the full original sweep by value, so a shard is
/// self-contained — ship it to a worker and run it there.
struct shard {
  std::size_t index = 0;  ///< k in "shard k of count".
  std::size_t count = 1;  ///< n — how many shards the plan produced.
  std::size_t first = 0;  ///< First global item of this shard.
  std::size_t last = 0;   ///< One past the last global item.
  api::sweep sweep;
};

/// Shard k of a deterministic n-shard partition of `sw` with balanced
/// contiguous item ranges (sizes differ by at most one; empty ranges are
/// allowed when n exceeds the item count). For k = 0..n-1 the ranges tile
/// [0, cells x replications) exactly, so the union of the shards is the
/// original (cell, replication) seed stream. The boundaries are
/// closed-form, so a worker process computes its own shard alone. Throws
/// bsched::error when n == 0 or k >= n.
[[nodiscard]] shard plan_shard(const api::sweep& sw, std::size_t k,
                               std::size_t n);

/// One grid cell's slice of a shard aggregate: the self-describing
/// scenario columns next to the mergeable accumulator state.
struct cell_record {
  std::size_t cell = 0;
  std::string label;     ///< sweep.cells[cell].describe().
  std::string load;      ///< load_spec::describe().
  std::string policy;    ///< Policy spec string.
  std::string fidelity;  ///< api::name(model).
  api::cell_accumulator agg;

  friend bool operator==(const cell_record&, const cell_record&) = default;
};

/// The portable result of running one shard: the sweep's shape (for
/// merge-time validation), the shard's item range, per-process run
/// accounting and one cell_record per original grid cell (cells the
/// range does not touch carry empty accumulators and merge as no-ops).
/// dist::codec serializes this to a line-oriented text format.
struct shard_aggregate {
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::size_t first_item = 0;
  std::size_t last_item = 0;
  std::size_t grid_cells = 0;    ///< sweep.cells.size().
  std::size_t replications = 0;  ///< sweep.replications.
  std::uint64_t seed = 0;        ///< sweep.seed.
  bool reseed = true;
  api::sweep_stats stats;  ///< Per-process accounting of the slice run.
  std::vector<cell_record> cells;

  friend bool operator==(const shard_aggregate&,
                         const shard_aggregate&) = default;
};

/// The aggregate of no items of `sw`: the sweep shape and one cell_record
/// per grid cell, descriptors filled in, accumulators empty, covering the
/// empty range [0, 0) as shard 0 of 1. Building the descriptors costs a
/// describe() per cell, so a caller appending many small ranges (a fleet
/// worker) builds this once and copies it.
[[nodiscard]] shard_aggregate empty_aggregate(const api::sweep& sw);

/// Runs items [sh.first, sh.last) of the shard's sweep on `n_threads`
/// workers and appends them to `into`, which must be an aggregate of that
/// sweep ending where the range starts (into.last_item == sh.first); on
/// return into.last_item == sh.last. The range runs as
/// engine::run_sweep over the shard's sweep with the item range
/// [sh.first, sh.last), so every item runs the scenario the full sweep
/// would run for it (deterministic cells within the range still dedupe),
/// and each result is added to its grid cell's accumulator one by one in
/// stream order. Appending consecutive ranges therefore gives exactly the
/// aggregate of one call over their union, cache accounting
/// (stats.evaluated and cache_hits) aside. Throws bsched::error on a
/// range that does not continue `into` or exceeds the sweep, or a shape
/// mismatch.
void run_shard(const api::engine& engine, const shard& sh,
               shard_aggregate& into, std::size_t n_threads = 0);

/// The aggregate of one shard: empty_aggregate with the shard's index,
/// count and start, then the appending run_shard over its range.
/// Aggregates are identical for any worker-thread count.
[[nodiscard]] shard_aggregate run_shard(const api::engine& engine,
                                        const shard& sh,
                                        std::size_t n_threads = 0);

/// Incrementally folds shard aggregates of one sweep in stream order.
/// Parts may arrive in any order (the sweep service's leases complete
/// out of order); each is validated against the already-seen sweep shape
/// and cell descriptors on add(), overlaps and duplicates are rejected
/// immediately, and the contiguous prefix from item 0 folds eagerly —
/// so progress is observable, and coverage is a single frontier: an
/// overlap or a gap shows as a part that does not start where the
/// folded prefix ends. `take(last)` requires the folded prefix to cover
/// [0, last) with nothing buffered (i.e. no gaps) and returns the
/// merged aggregate. merge_shards below is one-shot sugar over this.
class stream_merger {
 public:
  /// Buffers or folds one part. Throws bsched::error on shape/descriptor
  /// mismatch with earlier parts and on overlap with the folded prefix or
  /// a buffered part.
  void add(shard_aggregate part);

  /// One past the last item folded into the contiguous prefix.
  [[nodiscard]] std::size_t next() const noexcept { return next_; }
    /// True when the folded prefix reaches `last` with nothing buffered.
  [[nodiscard]] bool complete(std::size_t last) const noexcept;

  /// The merged aggregate covering [0, last). Throws bsched::error
  /// naming the first gap when coverage is incomplete, or when no part
  /// was ever added.
  [[nodiscard]] shard_aggregate take(std::size_t last);

 private:
  std::size_t next_ = 0;
  bool seeded_ = false;        ///< merged_ holds at least one part.
  shard_aggregate merged_;
  /// Out-of-order parts keyed by first item; empty ranges sort before a
  /// non-empty range starting at the same item, mirroring merge order.
  std::vector<shard_aggregate> pending_;
};

/// Folds shard aggregates of one sweep into a single aggregate covering
/// the whole stream. Validates that every part agrees on the sweep shape
/// (cells/replications/seed/reseed flag/shard count) and cell
/// descriptors, and that the item ranges tile [0, cells x replications)
/// exactly once; the merge adds counts, so the result is independent of
/// the order the parts are passed in. Throws bsched::error
/// on overlap, gaps or shape mismatch. (One-shot form of stream_merger.)
[[nodiscard]] shard_aggregate merge_shards(std::vector<shard_aggregate> parts);

/// The cell_summary rows of an aggregate — what api::summarize would
/// report for the covered items (descriptor columns carried through).
[[nodiscard]] std::vector<api::cell_summary> summaries(
    const shard_aggregate& agg);

}  // namespace bsched::dist
