#include "opt/policies.hpp"

#include <optional>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace bsched::opt {

namespace {

/// Shared replay core of "opt"/"worst": the plan is computed once per
/// run, at model-binding time, on the same bank the simulator advances —
/// so search and replay step identical per-battery state.
class exact_schedule_policy final : public sched::policy {
 public:
  exact_schedule_policy(bool minimize, search_options opts)
      : minimize_(minimize), opts_(opts) {}

  void bind_model(const sched::model_info& model) override {
    require(model.bank != nullptr,
            "policy '" + name() +
                "' is computed on the discrete grid and requires discrete "
                "fidelity");
    require(model.forecast != nullptr,
            "policy '" + name() + "' needs the load forecast");
    const optimal_result plan =
        minimize_ ? worst_schedule(*model.bank, *model.forecast, opts_)
                  : optimal_schedule(*model.bank, *model.forecast, opts_);
    decisions_ = plan.decisions;
    stats_ = plan.stats;
    cursor_ = 0;
  }

  std::size_t choose(const sched::decision_context& ctx) override {
    if (cursor_ < decisions_.size()) {
      const std::size_t pick = decisions_[cursor_++];
      // Per-decision checks: the message is built only when one throws.
      if (pick >= ctx.batteries.size() || ctx.batteries[pick].empty) {
        throw error("policy '" + name() +
                    "': plan picks an unusable battery "
                    "(was the policy bound to this run's model?)");
      }
      return pick;
    }
    // The plan covers every new_job event until system death; past it
    // (e.g. an unbound direct-simulator use) fall back to greedy.
    const auto pick = sched::greedy_choice(ctx.batteries);
    if (!pick.has_value()) {
      throw error("policy '" + name() + "': all batteries empty");
    }
    return *pick;
  }

  std::string name() const override { return minimize_ ? "worst" : "opt"; }
  void reset() override { cursor_ = 0; }
  sched::search_stats stats() const override { return stats_; }

 private:
  bool minimize_;
  search_options opts_;
  std::vector<std::size_t> decisions_;
  std::size_t cursor_ = 0;
  sched::search_stats stats_;
};

/// The online rollout scheduler. No precomputation: every job start is
/// scored through the simulator backend's model_view, so random loads,
/// mid-job hand-overs and continuous fidelity all work.
class lookahead_rollout_policy final : public sched::policy {
 public:
  explicit lookahead_rollout_policy(std::size_t horizon)
      : horizon_(horizon) {}

  std::size_t choose(const sched::decision_context& ctx) override {
    if (!ctx.handover && ctx.model != nullptr) {
      // Score every distinct alive candidate by rollout; duplicates
      // (interchangeable batteries) are provably equal and skipped.
      // Ties break to the first (lowest-index) candidate tried.
      // Interchangeability is an equivalence (equal type and state), so a
      // candidate is a duplicate iff an earlier alive one is its twin, and
      // the earlier candidates themselves stand for the tried set.
      std::optional<std::size_t> best;
      sched::rollout_outcome best_outcome;
      for (std::size_t c = 0; c < ctx.batteries.size(); ++c) {
        if (ctx.batteries[c].empty) continue;
        bool twin = false;
        for (std::size_t t = 0; t < c && !twin; ++t) {
          twin = !ctx.batteries[t].empty && ctx.model->interchangeable(t, c);
        }
        if (twin) continue;
        const sched::rollout_outcome outcome =
            ctx.model->rollout(c, horizon_);
        ++stats_.rollouts;
        if (!best || outcome.better_than(best_outcome)) {
          best = c;
          best_outcome = outcome;
        }
      }
      require(best.has_value(), "lookahead: all batteries empty");
      return *best;
    }
    // Mid-job hand-overs follow the greedy rule the rollout tail already
    // assumed when the job was scored; committing rollouts here would
    // deviate from the plan being executed. Model-less drivers degrade
    // to the same rule (horizon-0 behaviour).
    const auto pick = sched::greedy_choice(ctx.batteries);
    require(pick.has_value(), "lookahead: all batteries empty");
    return *pick;
  }

  std::string name() const override { return "lookahead"; }
  void reset() override { stats_ = {}; }
  sched::search_stats stats() const override { return stats_; }

 private:
  std::size_t horizon_;
  sched::search_stats stats_;
};

/// Spec-parameter overrides for the exact search, e.g.
/// "opt:max_nodes=1000,prune=0".
search_options search_opts_from(const spec& s, search_options opts) {
  s.require_only({"max_nodes", "prune"});
  opts.max_nodes = s.get_u64("max_nodes", opts.max_nodes);
  opts.prune = s.get_u64("prune", opts.prune ? 1 : 0) != 0;
  return opts;
}

}  // namespace

std::unique_ptr<sched::policy> lookahead_policy(std::size_t horizon_jobs) {
  return std::make_unique<lookahead_rollout_policy>(horizon_jobs);
}

sched::registry model_registry(const search_options& defaults) {
  sched::registry r = sched::registry::built_in();
  r.add("opt", [defaults](const spec& s) {
    return std::make_unique<exact_schedule_policy>(
        false, search_opts_from(s, defaults));
  });
  r.add("worst", [defaults](const spec& s) {
    return std::make_unique<exact_schedule_policy>(
        true, search_opts_from(s, defaults));
  });
  r.add("lookahead", [](const spec& s) {
    s.require_only({"horizon"});
    return lookahead_policy(s.get_u64("horizon", 4));
  });
  return r;
}

}  // namespace bsched::opt
