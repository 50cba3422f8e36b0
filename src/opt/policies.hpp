// Model-aware scheduling policies: the exact-search schedules ("opt",
// "worst") and the online rollout scheduler ("lookahead:horizon=N") as
// first-class sched::policy implementations.
//
// All three consume the model-binding hook of sched/policy.hpp — the
// simulator core hands every policy the bank model and the load forecast
// once per run — so they resolve through the ordinary string registry and
// run anywhere a blind policy runs: single scenarios, batches, replicated
// sweeps. The exact schedules plan at bind time (they need the whole
// future and the discrete grid, and reject continuous fidelity); the
// lookahead policy plans at *decision* time through the per-decision
// sched::model_view, rolling candidate assignments out on a scratch copy
// of the bank state — so it works under random loads, mid-job hand-overs
// and both fidelities. Planning effort is reported through
// policy::stats() and surfaces in api::run_result::search.
#pragma once

#include <cstdint>
#include <memory>

#include "opt/search.hpp"
#include "sched/registry.hpp"

namespace bsched::opt {

/// Online rollout lookahead: at every job start, each distinct alive
/// battery is scored by simulating `horizon_jobs` jobs ahead on the
/// model view's scratch state (greedy tail), and the best rollout wins.
/// Mid-job hand-overs follow the same greedy rule the rollout tail
/// assumes. Works at either fidelity; degrades to plain greedy under
/// drivers that provide no model view.
[[nodiscard]] std::unique_ptr<sched::policy> lookahead_policy(
    std::size_t horizon_jobs);

/// registry::built_in() plus the model-aware policies — the default
/// policy universe of api::engine:
///   "opt", "worst"         — the exact maximum-/minimum-lifetime schedule:
///                            bind_model runs optimal_schedule or
///                            worst_schedule on the offered bank and
///                            forecast, choose() replays the decision list
///                            (falling back to greedy best-of-N if ever
///                            exhausted); discrete fidelity only, bind_model
///                            throws bsched::error otherwise. Optional spec
///                            parameters max_nodes=N and prune=0/1 override
///                            `defaults`;
///   "lookahead"            — lookahead_policy, horizon=N (default 4).
[[nodiscard]] sched::registry model_registry(
    const search_options& defaults = {});

}  // namespace bsched::opt
