// Optimal battery scheduling by branch-and-bound over the dKiBaM.
//
// The paper obtains optimal schedules with Uppaal Cora's minimum-cost
// reachability on the TA-KiBaM. This module exploits the observation of
// Section 4.4 — between scheduling points the model is fully deterministic —
// and searches the decision tree directly: a node is the start of a job
// epoch, a branch is the choice of battery (plus forced hand-over choices
// when the active battery is observed empty mid-job).
//
// The search runs on a kibam::bank — the same per-battery-discretization
// representation the simulator advances — so banks may mix capacities and
// KiBaM parameters. It is one sequential, exact, deterministic pass:
//  * memoisation on (position in the cyclic load, battery states sorted
//    within groups of identical battery types) merges permutations of
//    interchangeable batteries (symmetry reduction); entries carry an
//    exact/upper-bound flag, so incumbent-pruned subtrees may be reused
//    as bounds without ever corrupting an exact value. The table is
//    flat: keys are 1 + bank.size() words, stored inline beside their
//    value and cached hash in one insertion-order arena, found through
//    an open-addressed index (linear probing, doubled past load 1/2).
//    Nothing is evicted: every entry is an expanded node, so max_nodes
//    bounds the table. Key and candidate frames live on stacks the
//    search owns, so the per-node path allocates nothing: a search makes
//    a logarithmic number of allocations in its node count
//    (tests/test_alloc.cpp);
//  * a trajectory-aware admissible bound (trajectory_bound_steps): per
//    battery, the supply of charge units by wall-clock time T is capped
//    by the initial available charge plus what the recovery process can
//    free — each recovery tick returns (1000 - c) permille and ticks are
//    spaced by the recovery table at the battery's maximum *alive*
//    height, which shrinks with the remaining charge. The system dies no
//    later than the first draw whose cumulative demand exceeds the
//    summed per-battery supply. This bound tracks the recovery-rate
//    bottleneck that actually kills the Table 5 banks, so — unlike the
//    flat drain cap it succeeds — it prunes there. Each battery's supply
//    is evaluated in closed form, two divisions per probe;
//  * the load is discretized once per search: the prefix and one cycle
//    become a table of (length in steps, draw rate, job) entries that the
//    node simulation, the idle skip and the bound walk all read, so no
//    visit re-rounds an epoch or re-derives its draw rate. Building it
//    runs rate_for on every job epoch up front, so a load the grid cannot
//    realise throws before the search starts;
//  * a warm start seeds the incumbent from one horizon-1 lookahead
//    rollout, so pruning has a reference from node one; pruned children
//    return upper bounds that never beat the incumbent, so the final
//    optimum and its schedule stay exact.
// Independent searches may run concurrently (a sweep runs one per cell);
// each owns its memo and scratch state, so nothing is shared between them.
#pragma once

#include <cstdint>
#include <vector>

#include "kibam/bank.hpp"
#include "kibam/discrete.hpp"
#include "load/trace.hpp"
#include "sched/policy.hpp"

namespace bsched::opt {

struct search_options {
  bool prune = true;            ///< Enable the admissible-bound pruning.
  /// Safety valve; throws beyond. At most 2^32 - 1, the memo's entry
  /// numbering (a larger budget throws before the search starts). Every
  /// memo entry is an expanded node, so this also bounds the memo.
  std::uint64_t max_nodes = 200'000'000;
};

/// Statistics of one search or rollout run; surfaced unchanged through
/// api::run_result so clients never need to call into opt:: for them.
/// (The struct itself lives in sched/policy.hpp so any sched::policy —
/// in particular the model-aware ones of opt/policies.hpp — can report
/// planning effort without depending on this layer.)
using search_stats = sched::search_stats;

struct optimal_result {
  double lifetime_min = 0;
  /// Battery choice per new_job event (job starts and hand-overs, in
  /// order); replayable through sched::fixed_schedule.
  std::vector<std::size_t> decisions;
  search_stats stats;
};

/// Maximum-lifetime schedule for the (possibly heterogeneous) bank under
/// `load`. Throws when `max_nodes` is exceeded.
[[nodiscard]] optimal_result optimal_schedule(
    const kibam::bank& bank, const load::trace& load,
    const search_options& opts = {});

/// Homogeneous convenience: `battery_count` identical batteries.
[[nodiscard]] optimal_result optimal_schedule(
    const kibam::discretization& disc, std::size_t battery_count,
    const load::trace& load, const search_options& opts = {});

/// Admissible per-battery cap on the charge units a battery with `n`
/// remaining units can ever deliver, given that single draws never exceed
/// `max_draw_units`. A KiBaM battery is observed empty while still
/// holding bound charge: every unit drawn raises the height difference,
/// and the empty criterion (1000 - c) m >= c n strands at least
/// ceil((1000 - c + 1) / c) units at death (minus one final draw of at
/// most `max_draw_units`), whatever the recovery schedule. One of the two
/// supply caps inside trajectory_bound_steps. Exposed for property tests.
[[nodiscard]] std::int64_t deliverable_units(const kibam::discretization& d,
                                             std::int64_t n,
                                             std::int64_t max_draw_units);

/// The trajectory-aware admissible bound (in time steps) on the remaining
/// system lifetime from the start of epoch `epoch_index`, for the bank in
/// per-battery states `bats`. Integrates the recovery-table descent: a
/// battery at (n, m) holds avail = c n - (1000 - c) m permille of
/// available charge; every delivered unit costs 1000 permille and every
/// recovery tick returns (1000 - c), with ticks spaced at least
/// recovery_steps(M) where M bounds every future *alive* height (the
/// empty criterion caps M by the remaining charge). Summing these supply
/// curves and walking the load's cumulative demand gives the first draw
/// the system provably cannot serve. Never exceeds the flat drain cap
/// over deliverable_units, and never undercuts a realizable lifetime
/// (property-tested on random heterogeneous banks).
/// `max_draw_units` is the largest single draw in the load. Discretizes
/// `load` per call (the search builds that table once and reuses it).
[[nodiscard]] std::int64_t trajectory_bound_steps(
    const kibam::bank& bank, const std::vector<kibam::discrete_state>& bats,
    const load::trace& load, std::size_t epoch_index,
    std::int64_t max_draw_units);

/// Minimum-lifetime schedule (same search, minimising): used to verify the
/// paper's claim that sequential discharge is the worst possible schedule.
[[nodiscard]] optimal_result worst_schedule(const kibam::bank& bank,
                                            const load::trace& load,
                                            const search_options& opts = {});

}  // namespace bsched::opt
