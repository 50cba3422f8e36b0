// Battery scheduling policies (Section 6).
//
// A policy is consulted at every `new_job` event: at the start of each job
// and when the active battery is observed empty mid-job (the hand-over of
// Section 4.3). It must pick a non-empty battery. Policies may keep state
// (round robin does); `reset` is called when a simulation starts.
//
// Policies come in two kinds:
//   * blind     — decide from the battery views alone (sequential, round
//                 robin, best-of-N, ...);
//   * model-aware — additionally see the battery model and the
//                 remaining-load forecast. The simulator hands every
//                 policy the model once per run through `bind_model`
//                 (the binding hook) and a per-decision `model_view`
//                 through the decision context, so the exact-search and
//                 rollout schedulers of src/opt are ordinary policies.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace bsched::kibam {
class bank;
}
namespace bsched::load {
class trace;
}

namespace bsched::sched {

/// Immutable snapshot of one battery at a decision point.
struct battery_view {
  std::size_t index;       ///< Position in the battery bank.
  double total_amin;       ///< Remaining total charge gamma.
  double available_amin;   ///< Charge in the available well y1.
  bool empty;              ///< Observed empty (unusable).
};

/// What a model-aware policy may bind to at the start of a run: the bank
/// model (discrete fidelity only) and the full load forecast. The engine
/// and both simulator backends invoke `policy::bind_model` with this once
/// per run; the pointees outlive the simulation.
struct model_info {
  /// The shared-grid bank the discrete simulator advances; nullptr at
  /// continuous fidelity (a policy that requires the discrete grid, such
  /// as the exact search, must reject that in bind_model).
  const kibam::bank* bank = nullptr;
  /// The load the simulation will serve, from t = 0.
  const load::trace* forecast = nullptr;
};

/// Outcome of simulating one candidate future (model_view::rollout).
struct rollout_outcome {
  double survived_min = 0;  ///< Time survived within the rollout window.
  bool died = false;        ///< The whole system died inside the window.
  /// Minimum available charge across alive batteries at the window end —
  /// a balance-seeking tie-break (maximising the total instead can prefer
  /// deep-draining one battery, which collapses into sequential
  /// discharge). Units are backend-internal but consistent within a run.
  double health = 0;

  /// True when this outcome is strictly preferable to `other`: surviving
  /// beats dying, dying later beats dying earlier, then higher health.
  [[nodiscard]] bool better_than(const rollout_outcome& other) const {
    if (died != other.died) return !died;
    if (died) return survived_min > other.survived_min;
    return health > other.health;
  }
};

/// Decision-time window into the simulator's battery model. Both the
/// discrete and the continuous backend implement it, so a model-aware
/// policy (e.g. "lookahead:horizon=N") runs unchanged under either
/// fidelity, random loads included. All methods are read-only: rollouts
/// advance a scratch copy of the model state, never the simulation.
class model_view {
 public:
  virtual ~model_view() = default;

  /// Simulates one candidate future on a scratch state copy: `candidate`
  /// serves the remainder of the current epoch (mid-job hand-overs fall
  /// to the greedy most-available rule), then `horizon_jobs` further job
  /// epochs are served greedily, idle epochs passing in between.
  [[nodiscard]] virtual rollout_outcome rollout(
      std::size_t candidate, std::size_t horizon_jobs) const = 0;

  /// True when batteries `a` and `b` are interchangeable at this decision
  /// point — same battery type and same model state (the discharge clock,
  /// which is reset on activation, excluded). Their rollouts are then
  /// provably identical, so a policy may skip the duplicate.
  [[nodiscard]] virtual bool interchangeable(std::size_t a,
                                             std::size_t b) const = 0;
};

/// Everything a policy may base its decision on.
struct decision_context {
  std::size_t job_index;                    ///< 0-based job counter.
  double time_min;                          ///< Absolute time.
  double job_current_a;                     ///< Current of the job (segment).
  bool handover;                            ///< True for mid-job hand-overs.
  std::optional<std::size_t> previous;      ///< Battery serving the previous
                                            ///< segment, if any.
  std::span<const battery_view> batteries;  ///< One view per battery.
  /// Decision-time model window; both simulator backends provide one.
  /// May be null under exotic drivers — model-aware policies should then
  /// degrade to a blind rule rather than crash.
  const model_view* model = nullptr;
};

/// Statistics a model-aware policy accumulates while planning: exact
/// search effort (nodes, memoisation, pruning) and rollout counts.
/// Surfaced unchanged through api::run_result::search; all-zero for
/// blind policies. (Aliased as opt::search_stats.)
struct search_stats {
  std::uint64_t nodes = 0;      ///< Decision nodes expanded.
  std::uint64_t memo_hits = 0;
  std::uint64_t pruned = 0;     ///< Children cut (bound or bounded memo hit).
  std::uint64_t memo_entries = 0;
  std::uint64_t rollouts = 0;   ///< Candidate futures simulated (lookahead).
  /// Children cut specifically by the trajectory-aware admissible bound
  /// (a subset of `pruned`; the rest are bounded-memo reuses).
  std::uint64_t pruned_by_bound = 0;
  /// Warm-start incumbent seeded from a lookahead rollout, in time steps
  /// (0 when the warm start is off: minimisation or pruning disabled).
  std::uint64_t incumbent_from_lookahead = 0;

  /// Field-wise sum — how api::cell_summary folds per-replication stats
  /// across a cell.
  search_stats& operator+=(const search_stats& o) noexcept {
    nodes += o.nodes;
    memo_hits += o.memo_hits;
    pruned += o.pruned;
    memo_entries += o.memo_entries;
    rollouts += o.rollouts;
    pruned_by_bound += o.pruned_by_bound;
    incumbent_from_lookahead += o.incumbent_from_lookahead;
    return *this;
  }

  friend bool operator==(const search_stats&, const search_stats&) = default;
};

/// Scheduling policy interface.
class policy {
 public:
  virtual ~policy() = default;

  /// Index of the battery to serve this segment. Returning an empty battery
  /// (or an out-of-range index) is a programming error the simulator rejects.
  [[nodiscard]] virtual std::size_t choose(const decision_context& ctx) = 0;

  /// Display name, e.g. "round robin".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Invoked when a fresh simulation starts.
  virtual void reset() {}

  /// Model-binding hook, invoked once per run (by the simulator core,
  /// before reset) with the bank model and load forecast. Blind policies
  /// ignore it; model-aware policies may precompute a plan (the exact
  /// search does) or throw bsched::error when the offered model is
  /// unsupported (e.g. no discrete bank). The pointees stay valid for
  /// the duration of the run.
  virtual void bind_model(const model_info& /*model*/) {}

  /// Planning statistics since the last bind_model/reset; all-zero for
  /// blind policies.
  [[nodiscard]] virtual search_stats stats() const { return {}; }
};

/// Sequential discharge: drain battery 0 fully, then battery 1, ...
/// (the paper proves this is the worst possible schedule).
[[nodiscard]] std::unique_ptr<policy> sequential();

/// Round robin: a new battery per job, cycling in fixed index order and
/// skipping empty ones.
[[nodiscard]] std::unique_ptr<policy> round_robin();

/// Best-of-N (the paper's best-of-two generalised): the non-empty battery
/// with the most available charge; ties break to the lowest index.
[[nodiscard]] std::unique_ptr<policy> best_of_n();

/// Adversarial twin of best-of-N: always the *least* available charge.
/// Useful as a lower-bound baseline in ablations.
[[nodiscard]] std::unique_ptr<policy> worst_of_n();

/// Uniform random choice among non-empty batteries (deterministic in seed).
[[nodiscard]] std::unique_ptr<policy> random_choice(std::uint64_t seed);

/// Replays a precomputed decision list (e.g. an optimal schedule); falls
/// back to best-of-N when the list is exhausted.
[[nodiscard]] std::unique_ptr<policy> fixed_schedule(
    std::vector<std::size_t> decisions);

/// The greedy most-available choice over the views (the best-of-N rule),
/// shared by policies that need it as a building block. Returns nothing
/// when every battery is empty.
[[nodiscard]] std::optional<std::size_t> greedy_choice(
    std::span<const battery_view> batteries);

}  // namespace bsched::sched
