// Replicated scenario sweeps — the batch surface behind engine::run_sweep.
//
// The paper's outlook asks for policy evaluation under *random* workloads,
// where one run per grid cell is meaningless: lifetimes must be reported
// as distributions over repeated seeded trials. A `sweep` is a scenario
// grid plus a replication count; every (cell, replication) pair derives
// its own seed (rng::derive, splitmix64-style) and re-seeds the cell's
// random load / "random:" policy, so the whole sweep is one deterministic
// value. Results stream through a `result_sink` as they finish instead of
// being collected into a vector — delivery is serialized in grid order
// (cells outer, replications inner), so every aggregate a sink builds is
// byte-identical whatever the worker-thread count.
//
// Only items that can repeat are cached. A deterministic cell runs the
// same scenario every replication, so run_sweep keys it by value
// (bank, load, policy, fidelity, steps, sim options) once and replays the
// result for its other replications and for duplicate cells (e.g. Table
// 5's opt/worst pairs repeated across fidelity grids). An item of a
// re-seeded stochastic cell derives its seeds from its own global
// (cell, replication), so no other item can equal it: it is evaluated
// without a key and never replayed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "api/result.hpp"
#include "api/scenario.hpp"

namespace bsched::api {

/// A scenario grid evaluated `replications` times per cell.
struct sweep {
  std::vector<scenario> cells;
  /// Evaluations per cell. Each replication derives fresh seeds for the
  /// cell's random load spec and "random:..." policy (see `replicate`);
  /// all other cells — including custom-registered policies, which are
  /// deterministic in their spec string and therefore not re-seeded —
  /// repeat bit-identically and collapse into one cached evaluation.
  std::size_t replications = 1;
  /// Base seed of the per-(cell, replication) derivation; sweeps with
  /// different seeds draw independent replication streams.
  std::uint64_t seed = 0;
  /// When false, cells run verbatim — no seed derivation. This is the
  /// `run_batch` compatibility mode: one replication of every cell with
  /// exactly the seeds the scenarios declare.
  bool reseed = true;
};

/// A contiguous range [first, last) of a sweep's flattened item stream,
/// where item i is (cell, replication) = (i / replications,
/// i % replications). The default range is the whole stream.
struct item_range {
  static constexpr std::size_t to_end = static_cast<std::size_t>(-1);
  std::size_t first = 0;
  std::size_t last = to_end;  ///< to_end = cells x replications.
};

/// One completed run, as delivered to a result_sink. A transient view —
/// `result` references the sweep's internal cache and is only valid for
/// the duration of the consume() call.
struct sweep_result {
  std::size_t cell;         ///< Index into sweep.cells.
  std::size_t replication;  ///< 0 .. replications-1.
  /// True when the result was replayed from the cell cache rather than
  /// simulated (an earlier item of the same run_sweep call evaluated an
  /// identical deterministic cell).
  bool cache_hit;
  const run_result& result;
};

/// Receives every (cell, replication) result of a sweep exactly once, in
/// grid order (cells outer, replications inner). Calls are serialized,
/// so sinks need no locking. Sinks should not throw; if one does, no
/// further results are delivered and the first exception resurfaces
/// from run_sweep on the calling thread after the sweep drains.
class result_sink {
 public:
  virtual ~result_sink() = default;
  virtual void consume(const sweep_result& r) = 0;
};

/// Adapts a callable to result_sink:
///   engine.run_sweep(sw, callback_sink{[&](const api::sweep_result& r) {
///     ...
///   }});
class callback_sink final : public result_sink {
 public:
  explicit callback_sink(std::function<void(const sweep_result&)> fn)
      : fn_(std::move(fn)) {}
  void consume(const sweep_result& r) override { fn_(r); }

 private:
  std::function<void(const sweep_result&)> fn_;
};

/// Aggregate accounting of one run_sweep call.
struct sweep_stats {
  std::size_t runs = 0;       ///< Deliveries: the items of the range.
  std::size_t evaluated = 0;  ///< Scenarios actually simulated.
  std::size_t cache_hits = 0; ///< runs - evaluated.
  std::size_t failures = 0;   ///< Deliveries with run_result::error set.

  /// Field-wise sum: the accounting of two runs over disjoint items.
  sweep_stats& operator+=(const sweep_stats& o) noexcept {
    runs += o.runs;
    evaluated += o.evaluated;
    cache_hits += o.cache_hits;
    failures += o.failures;
    return *this;
  }

  friend bool operator==(const sweep_stats&, const sweep_stats&) = default;
};

/// Per-cell lifetime statistics over a sweep's replications (minutes).
struct cell_summary {
  std::size_t cell = 0;
  std::string label;           ///< sweep.cells[cell].describe().
  /// Self-describing scenario columns, so CSV rows and merged shard
  /// aggregates carry their cell's definition instead of every consumer
  /// recomputing it: the load description (load_spec::describe(), a
  /// parse() round-trip for paper/random loads), the policy spec string
  /// and the fidelity name.
  std::string load;
  std::string policy;
  std::string fidelity;
  std::size_t n = 0;           ///< Successful replications.
  std::size_t failures = 0;    ///< Replications with run_result::error.
  std::size_t cache_hits = 0;  ///< Replications served from the cache.
  double mean_min = 0;
  double min_min = 0;
  double max_min = 0;
  /// Sample standard deviation (n - 1 denominator); 0 when n < 2.
  double stddev_min = 0;
  /// Half-width of the normal-approximation 95% confidence interval,
  /// 1.96 * stddev / sqrt(n); 0 when n < 2.
  double ci95_min = 0;
  /// Lifetime quantiles: exact order statistics of the cell's samples
  /// under value_counts::quantile's rank rule; 0 when n == 0.
  double p10_min = 0;
  double p50_min = 0;
  double p90_min = 0;
  /// Median residual charge at death (A*min), same rank rule.
  double p50_residual_amin = 0;
  /// Planning effort summed over every delivered replication of the cell
  /// (cache hits replay the cached run's stats, failures contribute
  /// whatever the run counted before erroring) — all-zero for blind
  /// policies. Integer sums, so shard merges reproduce the
  /// single-process values exactly.
  opt::search_stats search;

  friend bool operator==(const cell_summary&, const cell_summary&) = default;
};

/// Vestigial: the per-cell distributions are exact at any replication
/// count (value_counts below), so nothing in the library reads this. It
/// stays declared because the end-to-end benchmark's equivalence check
/// still branches on it.
inline constexpr std::size_t summary_digest_centroids = 64;

/// One distinct sample value and how many samples took it.
struct value_count {
  double value = 0;
  std::uint64_t count = 0;

  friend bool operator==(const value_count&, const value_count&) = default;
};

/// An exact sample distribution: the distinct values in increasing order,
/// each with its count. Discrete lifetimes and residuals lie on the
/// model's grid, so a cell holds a few hundred entries however many
/// replications it has; continuous cells hold one entry per distinct
/// sample. `merge` adds counts, so a merged distribution is exactly
/// independent of merge order and partition.
class value_counts {
 public:
  /// Counts one sample; -0 and +0 count as the one key +0. Throws
  /// bsched::error on NaN.
  void add(double x);

  /// Adds every count of `other`.
  void merge(const value_counts& other);

  /// The number of samples (the sum of the counts).
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  /// The one rank rule of the sweep statistics: sample i of the sorted
  /// multiset sits at rank i + 0.5, the q-quantile is at rank q * total,
  /// interpolated linearly between adjacent samples and clamped to the
  /// smallest and largest one. q is clamped to [0, 1]; NaN when empty
  /// or when q is NaN.
  [[nodiscard]] double quantile(double q) const;

  /// The entries, strictly increasing in value, every count positive.
  [[nodiscard]] const std::vector<value_count>& entries() const noexcept {
    return entries_;
  }

  /// Rebuilds a distribution from serialized entries (dist::codec
  /// decode); a -0 value reads as +0. Throws bsched::error unless the
  /// values strictly increase (which also refuses NaN), every count is
  /// positive and the total fits in 64 bits.
  [[nodiscard]] static value_counts from_entries(
      std::vector<value_count> entries);

  friend bool operator==(const value_counts&, const value_counts&) = default;

 private:
  std::vector<value_count> entries_;
  std::uint64_t total_ = 0;
};

/// The mergeable per-cell aggregate state behind `summarize`: the exact
/// lifetime and residual distributions of the successful replications,
/// plus failure, cache and search accounting. Every statistic is a pure
/// function of this state, and `merge` only adds counts, which is what
/// makes a sweep a partitionable computation: shard workers accumulate
/// independently and the merged state equals the sequential one exactly,
/// in every field (dist/shard.hpp, tools/sweep_merge).
struct cell_accumulator {
  std::size_t failures = 0;
  std::size_t cache_hits = 0;
  value_counts lifetime;  ///< Lifetimes (minutes) of successful runs.
  value_counts residual;  ///< Residual charge at death (A*min), same runs.
  opt::search_stats search;  ///< Field-wise sum over delivered results.

  /// Successful observations.
  [[nodiscard]] std::size_t n() const noexcept {
    return static_cast<std::size_t>(lifetime.total());
  }

  /// Folds one delivered result in.
  void add(const run_result& r, bool cache_hit);

  /// Adds `other`'s counts and sums: exact, commutative and associative.
  void merge(const cell_accumulator& other);

  /// Writes the derived statistics (mean/stddev/CI/quantiles/...) into
  /// the numeric fields of `out`; descriptor fields are left untouched.
  void finalize(cell_summary& out) const;

  friend bool operator==(const cell_accumulator&,
                         const cell_accumulator&) = default;
};

/// Collecting sink computing per-cell statistics as results stream in:
/// memory is O(distinct values per cell) — bounded by the model's grid
/// for discrete cells, one entry per sample for continuous ones. Every
/// statistic is a function of the per-cell value counts alone, so the
/// summaries are byte-identical for any worker-thread count and any
/// partition of the items. The
/// distributed-sweep pipeline does not merge summaries: dist::stream_merger
/// folds the per-cell cell_accumulators of shard aggregates.
///
/// consume() only folds the result into its cell's accumulator and marks
/// the cell; cells() finalizes the marked cells when it is read. finalize
/// is a pure function of the accumulator, so a summary read once at the
/// end equals one finalized after every delivery, byte for byte.
class summarize final : public result_sink {
 public:
  /// Pre-sizes one summary per cell of `sw` (labels and scenario
  /// descriptors included).
  explicit summarize(const sweep& sw);

  void consume(const sweep_result& r) override;

  /// The per-cell summaries, finalized on read. Single reader: not to be
  /// called concurrently with itself or with consume().
  [[nodiscard]] const std::vector<cell_summary>& cells() const;

  /// The raw mergeable state, one accumulator per cell (serialized by
  /// dist::codec).
  [[nodiscard]] const std::vector<cell_accumulator>& accumulators()
      const noexcept {
    return agg_;
  }

 private:
  mutable std::vector<cell_summary> cells_;
  std::vector<cell_accumulator> agg_;
  /// Per cell: consumed since cells() last finalized it.
  mutable std::vector<bool> stale_;
};

/// The scenario run_sweep actually evaluates for (cell, replication).
/// With sw.reseed, a fresh base seed rng::derive(sw.seed, cell,
/// replication) re-seeds the cell's stochastic parts — the random load
/// spec gets rng::derive(base, streams::load, declared seed) and a
/// "random:..." policy gets rng::derive(base, streams::policy, declared
/// seed) (stream ids in util/streams.hpp), so the two never
/// share a stream and cells with intentionally different declared seeds
/// stay distinct. Deterministic cells pass through unchanged (duplicates
/// therefore still cache-hit); with !sw.reseed the cell is copied
/// verbatim.
[[nodiscard]] scenario replicate(const sweep& sw, std::size_t cell,
                                 std::size_t replication);

/// True when `replicate` would re-seed this cell — it has a random load
/// spec or a "random:..." policy. Non-stochastic cells replicate
/// bit-identically, so run_sweep evaluates them once per call.
[[nodiscard]] bool stochastic(const scenario& scn);

/// Canonical value key of a scenario: every lifetime-relevant field —
/// bank, load, policy, fidelity, steps, sim options — as a binary string.
/// Each double is its 8 raw bytes (exact, bit for bit); the variable-length
/// parts (battery count, trace prefix/cycle epoch counts) are length
/// prefixed, and the free-form policy spec comes last, so the key is
/// unambiguous. The display label is excluded. Scenarios with equal keys
/// produce equal run_results, which is the invariant the sweep cell
/// cache relies on. Not printable: compare and hash it, do not show it.
[[nodiscard]] std::string cell_key(const scenario& scn);

}  // namespace bsched::api
