// The benchmark's workloads. Each builds its inputs from the seed, runs
// a main phase and a 1-thread baseline phase pass by pass, and checks
// every pass's output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "api/sweep.hpp"

namespace perfbench {

/// One timed pass.
struct pass_outcome {
  double wall_s = 0;
  std::size_t items = 0;   ///< (cell, replication) items attempted.
  /// Items carrying run_result::error, or every item of the pass when
  /// its output check failed.
  std::size_t failed = 0;
};

/// Fleet accounting of one fleet pass, read from coordinator::counters()
/// and the workers' worker_report. Never from the merged per-worker
/// telemetry: the three workers share one process and therefore one
/// obs registry, so each worker.<name>.* snapshot holds the whole
/// process's counts and their sum would count everything three times.
struct fleet_report {
  std::size_t leases = 0;        ///< coordinator_counters::leases_granted.
  std::size_t steals = 0;        ///< coordinator_counters::steals.
  std::size_t worker_items = 0;  ///< Sum of worker_report::items.
  std::size_t folded_items = 0;  ///< Items in the merged aggregate.
  std::size_t chunk_items = 0;   ///< coordinator_options::chunk_items.
};

/// What the replay phase needs to know about a workload.
struct replay_inputs {
  std::vector<bsched::kibam::battery_parameters> bank;
  bsched::load::step_sizes steps;
  /// Effective (re-seeded) loads of the sweep's first items, one per
  /// distinct load cell.
  std::vector<bsched::api::load_spec> loads;
  const bsched::api::sweep* sweep = nullptr;  ///< The main phase's sweep.
  std::size_t lease_items = 1;  ///< Items in one fleet-sized lease.
};

class workload {
 public:
  virtual ~workload() = default;

  /// Builds the grid and the engine (with its policy registry); the
  /// fleet also binds a coordinator. Repeatable: the benchmark times
  /// several set-ups and keeps the last.
  virtual void setup(std::uint64_t seed) = 0;

  /// One pass of the main phase through `engine` (the plain engine, or
  /// the traced run's probing engine). `traced` adds the benchmark-side
  /// spans and sink forwarder; `fleet` receives fleet accounting.
  virtual pass_outcome main_pass(const bsched::api::engine& engine,
                                 bool traced, fleet_report* fleet) = 0;

  /// One pass of the same grid through engine::run_sweep on one thread.
  /// The first baseline pass records the reference output later passes
  /// are checked against, so it runs first.
  virtual pass_outcome baseline_pass(const bsched::api::engine& engine,
                                     bool traced) = 0;

  [[nodiscard]] virtual const bsched::api::engine& engine() const = 0;
  [[nodiscard]] virtual replay_inputs replay() const = 0;
};

/// "paper-opt", "fleet-narrow" or "sweep-wide"; nullptr for other names.
[[nodiscard]] std::unique_ptr<workload> make_workload(const std::string& name);

}  // namespace perfbench
