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
#include "util/tdigest.hpp"

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
  /// Lifetime distribution quantiles from the cell's t-digest sketch —
  /// exact up to summary_digest_centroids replications, the usual
  /// t-digest approximation beyond; 0 when n == 0.
  double p10_min = 0;
  double p50_min = 0;
  double p90_min = 0;
  /// Median residual charge at death (A*min) from the residual sketch.
  double p50_residual_amin = 0;
  /// Planning effort summed over every delivered replication of the cell
  /// (cache hits replay the cached run's stats, failures contribute
  /// whatever the run counted before erroring) — all-zero for blind
  /// policies. Integer sums, so shard merges reproduce the
  /// single-process values exactly.
  opt::search_stats search;

  friend bool operator==(const cell_summary&, const cell_summary&) = default;
};

/// Centroid budget of the per-cell lifetime/residual sketches: up to this
/// many replications the digests keep every sample, so quantiles — and
/// shard merges (dist/shard.hpp) — are exact.
inline constexpr std::size_t summary_digest_centroids = 64;

/// The mergeable per-cell aggregate state behind `summarize`: counts,
/// Welford moments, extrema and the lifetime/residual t-digest sketches.
/// `merge` is the Chan/Welford parallel combine, which is what makes a
/// sweep a partitionable computation: shard workers accumulate
/// independently and the merged state reproduces the sequential one
/// exactly for n/failures/min/max and to ulp-scale rounding for
/// mean/m2 (dist/shard.hpp, tools/sweep_merge).
struct cell_accumulator {
  std::size_t n = 0;           ///< Successful observations.
  std::size_t failures = 0;
  std::size_t cache_hits = 0;
  double mean = 0;
  double m2 = 0;  ///< Welford running sum of squared deviations.
  double min = 0;
  double max = 0;
  tdigest lifetime{summary_digest_centroids};
  tdigest residual{summary_digest_centroids};
  opt::search_stats search;  ///< Field-wise sum over delivered results.

  /// Folds one delivered result in (Welford update + sketches).
  void add(const run_result& r, bool cache_hit);

  /// Parallel combine (Chan et al.): order-sensitive only at ulp scale
  /// in mean/m2; counts and extrema combine exactly.
  void merge(const cell_accumulator& other);

  /// Writes the derived statistics (mean/stddev/CI/quantiles/...) into
  /// the numeric fields of `out`; descriptor fields are left untouched.
  void finalize(cell_summary& out) const;

  friend bool operator==(const cell_accumulator&,
                         const cell_accumulator&) = default;
};

/// Collecting sink computing per-cell statistics as results stream in
/// (Welford's online algorithm): memory is O(cells), independent of the
/// replication count. Because sinks are fed in deterministic grid order,
/// the summaries are byte-identical for any worker-thread count. The
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
