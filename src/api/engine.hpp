// The scenario engine: turns declarative scenarios into simulation runs,
// single or batched across a worker pool.
//
// Every policy — blind and model-aware alike — resolves through the
// string registry (sched/registry.hpp); the engine's default registry is
// opt::model_registry(), so "opt", "worst" and "lookahead:horizon=N" are
// ordinary entries next to "best_of_n" or "random:seed=N". Model-aware
// policies receive the scenario's bank model and load forecast through
// the binding hook the simulator core invokes once per run
// (sched::policy::bind_model); the exact schedules plan there (and
// reject continuous fidelity), while "lookahead" plans online at each
// decision through the backend's model_view — so it runs under random
// loads and at either fidelity. Planning statistics are reported in
// run_result::search for all of them.
//
// `run_sweep` evaluates a range of a replicated scenario grid's items
// (api/sweep.hpp; the whole grid by default) on `n_threads` workers,
// streaming every completed run_result through a result_sink in
// deterministic grid order. Deterministic cells are keyed by value once
// and replayed for their other replications and duplicates; an item of a
// re-seeded stochastic cell can never repeat, so it is never keyed.
// `run_batch` is a thin collecting sink over run_sweep.
//
// Discrete runs step a kibam::bank, whose discretization is the costly
// part to build. The engine owns a small bank cache, keyed by value on
// (batteries, steps) and shared by copies of the engine, so every run()
// and run_sweep() job of one shape — across calls too, e.g. a fleet
// worker's many small chunks — reads one immutable bank. In front of the
// cache each thread keeps a one-entry slot: the bank it looked up last,
// keyed on that shape and on a process-unique serial of the cache (never
// its address, so a new engine never inherits a destroyed one's bank).
// A run of the same shape on the same thread takes its bank from the
// slot without a lock or a write to shared memory; only a miss locks the
// cache. The slot holds a reference, so at most one bank per thread
// outlives its engine, until that thread's next miss or its exit. A
// shape that fails to build never enters the cache or a slot.
//
// Scenarios are self-contained (per-scenario RNG seeding; the shared
// banks are read-only), so sweep aggregates and batch results are
// byte-identical whatever the thread count — determinism is asserted in
// tests/test_api.cpp and tests/test_sweep.cpp.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/result.hpp"
#include "api/scenario.hpp"
#include "api/sweep.hpp"
#include "opt/policies.hpp"
#include "sched/registry.hpp"
#include "sched/simulator.hpp"

namespace bsched::api {

struct engine_options {
  /// Policy name resolution; extend a copy to register custom policies.
  /// The default includes the model-aware "opt" / "worst" /
  /// "lookahead:horizon=N" next to the blind built-ins; pass
  /// opt::model_registry(custom_search_options) to change the exact
  /// search's defaults (spec parameters like "opt:max_nodes=N" override
  /// per scenario).
  sched::registry policies = opt::model_registry();
};

class engine {
 public:
  engine() : engine(engine_options{}) {}
  explicit engine(engine_options opts);

  /// Evaluates one scenario. Throws bsched::error on invalid scenarios
  /// (empty bank, invalid steps, unknown policy or load, horizon
  /// exceeded, ...). Safe to call concurrently.
  [[nodiscard]] run_result run(const scenario& scn) const;

  /// Evaluates the items `items` of a replicated scenario grid (all of
  /// them by default) on a pool of `n_threads` workers (0 = hardware
  /// concurrency), pushing each completed result through `sink` as it
  /// finishes — in grid order (cells outer, replications inner),
  /// serialized, so sink aggregates are deterministic whatever the thread
  /// count. Results carry their global (cell, replication), and every
  /// item runs exactly the scenario the whole sweep would run for it. A
  /// deterministic cell is evaluated once per call and replayed for its
  /// other items and for identical cells (sweep_result::cache_hit); each
  /// item of a re-seeded stochastic cell is evaluated on its own.
  /// Per-cell failures are captured in run_result::error, never thrown.
  /// Returns the run/evaluation/cache-hit/failure counts. Throws
  /// bsched::error when the range exceeds the item stream.
  sweep_stats run_sweep(const sweep& sw, result_sink& sink,
                        std::size_t n_threads = 0,
                        item_range items = {}) const;

  /// Callable convenience overload of run_sweep.
  sweep_stats run_sweep(const sweep& sw,
                        std::function<void(const sweep_result&)> fn,
                        std::size_t n_threads = 0) const;

  /// Evaluates every scenario on a pool of `n_threads` workers
  /// (0 = hardware concurrency). Results are positionally aligned with
  /// the input and identical to a sequential run; per-scenario failures
  /// are reported in run_result::error. Implemented as a collecting sink
  /// over run_sweep (one replication, no re-seeding), so scenarios run
  /// with exactly the seeds they declare.
  [[nodiscard]] std::vector<run_result> run_batch(
      std::span<const scenario> scenarios, std::size_t n_threads = 0) const;

 private:
  /// The interned banks of discrete runs (engine.cpp).
  class bank_cache;

  engine_options opts_;
  /// Shared, not copied, by copies of the engine; locked on a slot miss.
  std::shared_ptr<bank_cache> banks_;
};

}  // namespace bsched::api
