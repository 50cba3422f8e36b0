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

/// Exact maximum-lifetime (or, when `minimize`, minimum-lifetime)
/// schedule as a policy: bind_model runs optimal_schedule/worst_schedule
/// on the offered bank and forecast, choose() replays the decision list
/// (falling back to greedy best-of-N if ever exhausted). Requires
/// discrete fidelity; bind_model throws bsched::error otherwise.
[[nodiscard]] std::unique_ptr<sched::policy> exact_policy(
    bool minimize = false, const search_options& opts = {});

/// Online rollout lookahead: at every job start, each distinct alive
/// battery is scored by simulating `horizon_jobs` jobs ahead on the
/// model view's scratch state (greedy tail), and the best rollout wins.
/// Mid-job hand-overs follow the same greedy rule the rollout tail
/// assumes. Works at either fidelity; degrades to plain greedy under
/// drivers that provide no model view.
[[nodiscard]] std::unique_ptr<sched::policy> lookahead_policy(
    std::size_t horizon_jobs);

/// Registers the model-aware factories into `r`:
///   "opt", "worst"         — optional spec parameters max_nodes=N and
///                            prune=0/1 overriding `defaults`;
///   "lookahead"            — horizon=N (default 4).
/// Existing entries of the same name are replaced.
void register_model_policies(sched::registry& r,
                             const search_options& defaults = {});

/// registry::built_in() plus the model-aware policies — the default
/// policy universe of api::engine.
[[nodiscard]] sched::registry model_registry(
    const search_options& defaults = {});

}  // namespace bsched::opt
