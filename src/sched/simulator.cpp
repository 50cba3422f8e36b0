#include "sched/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "kibam/scratch.hpp"
#include "util/error.hpp"

namespace bsched::sched {

namespace {

std::size_t checked_choice(policy& pol, const decision_context& ctx) {
  const std::size_t pick = pol.choose(ctx);
  require(pick < ctx.batteries.size(),
          "simulate: policy chose an out-of-range battery");
  require(!ctx.batteries[pick].empty,
          "simulate: policy chose an empty battery");
  return pick;
}

/// What happened while serving (part of) a job epoch.
enum class serve_event {
  epoch_done,   ///< The epoch ended with the active battery alive.
  handover,     ///< The active battery died mid-job; others survive.
  system_dead,  ///< The active battery died and the bank is exhausted.
};

// The common simulation core, parameterised over a battery-model backend.
//
// A Model owns the bank state and all time advancement; the core owns the
// scheduling protocol: walk epochs, consult the policy at every `new_job`
// event (job starts and mid-job hand-overs), record decisions and detect
// system death. A Model derives from sched::model_view (its decision-time
// rollout window, handed to the policy in the decision context) and
// provides:
//   attach(sim_result&, trace&) — result/forecast wiring at run start;
//   info()                   — the model_info for the policy binding hook;
//   now()                    — absolute time in minutes;
//   views()                  — one battery_view per battery;
//   record_initial()         — the t = 0 trace sample;
//   idle(epoch)              — advance through an idle epoch;
//   begin_epoch(epoch, index) — stage job epoch `index` for serving;
//   begin_service(active)    — a battery was put on (job start or hand-over);
//   serve(active)            — advance until the epoch ends or `active` dies;
//   finish(last_active)      — fill lifetime/residual at system death.
template <class Model>
sim_result run_simulation(Model& model, const load::trace& load, policy& pol,
                          const sim_options& opts) {
  sim_result res;
  model.attach(res, load);
  // The model-binding hook: exactly once per run, before reset. A
  // model-aware policy may plan here (the exact search does) or reject
  // the fidelity; blind policies ignore it.
  pol.bind_model(model.info());
  pol.reset();

  std::size_t job_index = 0;
  std::optional<std::size_t> previous;

  model.record_initial();
  load::epoch_cursor cursor{load};
  while (model.now() < opts.horizon_min) {
    const load::epoch& e = cursor.current();
    if (e.current_a <= 0) {
      model.idle(e);
      cursor.advance();
      continue;
    }
    model.begin_epoch(e, cursor.index());
    std::size_t active = checked_choice(
        pol, {job_index, model.now(), e.current_a, false, previous,
              model.views(), &model});
    res.decisions.push_back({model.now(), active, job_index, false});
    model.begin_service(active);
    for (;;) {
      const serve_event ev = model.serve(active);
      if (ev == serve_event::epoch_done) break;
      if (ev == serve_event::system_dead) {
        model.finish(active);
        return res;
      }
      active = checked_choice(
          pol, {job_index, model.now(), e.current_a, true, active,
                model.views(), &model});
      res.decisions.push_back({model.now(), active, job_index, true});
      model.begin_service(active);
    }
    previous = active;
    ++job_index;
    cursor.advance();
  }
  throw error(std::string{Model::kName} +
              ": system survived the analysis horizon");
}

/// dKiBaM backend: integer stepping on a shared (T, Gamma) grid. Banks may
/// be heterogeneous; batteries of the same type share one discretization
/// (and its precomputed recovery table) through the kibam::bank — the same
/// representation the exact search and the rollout scheduler advance.
///
/// The bank is borrowed read-only (engine::run_sweep shares one across
/// every job of the same shape); the per-battery state is a plain vector
/// of discrete_state. Time always advances through the event-horizon
/// kernel (bank::advance_all); a recorded run only splits each advance at
/// the sample ticks, so recording never changes the run.
class discrete_model : public model_view {
 public:
  static constexpr const char* kName = "simulate_discrete";

  discrete_model(const kibam::bank& bank, const sim_options& opts)
      : bank_(&bank),
        opts_(opts),
        states_(bank.full_states()),
        t_step_(bank.steps().time_step_min),
        unit_(bank.steps().charge_unit_amin),
        sample_period_(std::max<std::int64_t>(
            1, std::llround(opts.sample_min / t_step_))) {}

  void attach(sim_result& res, const load::trace& load) {
    res_ = &res;
    load_ = &load;
  }

  [[nodiscard]] model_info info() const { return {bank_, load_}; }

  [[nodiscard]] double now() const {
    return static_cast<double>(step_count_) * t_step_;
  }

  [[nodiscard]] std::vector<battery_view> views() const {
    std::vector<battery_view> out;
    out.reserve(states_.size());
    for (std::size_t i = 0; i < states_.size(); ++i) {
      const kibam::discrete_state& s = states_[i];
      out.push_back(
          {i, static_cast<double>(s.n) * unit_,
           static_cast<double>(disc_of(i).available_permille(s.n, s.m)) *
               unit_ / 1000.0,
           s.empty});
    }
    return out;
  }

  void record_initial() { record(-1); }

  void idle(const load::epoch& e) {
    std::int64_t steps = epoch_steps(e);
    advance(kibam::bank::idle, {0, 0}, steps);
  }

  void begin_epoch(const load::epoch& e, std::size_t index) {
    rate_ = load::rate_for(e.current_a, bank_->steps());
    remaining_ = epoch_steps(e);
    epoch_index_ = index;
  }

  void begin_service(std::size_t active) {
    states_[active].discharge_elapsed = 0;  // go_on resets c_disch
    if (pending_record_) {
      // The sample of the death step, attributed to the hand-over target
      // the policy just picked.
      record(static_cast<int>(active));
      pending_record_ = false;
    }
  }

  serve_event serve(std::size_t active) {
    if (advance(active, rate_, remaining_) != kibam::step_event::died) {
      return serve_event::epoch_done;
    }
    if (all_empty()) return serve_event::system_dead;
    pending_record_ = true;
    return serve_event::handover;
  }

  void finish(std::size_t last_active) {
    res_->lifetime_min = now();
    double residual = 0;
    for (const kibam::discrete_state& s : states_) {
      residual += static_cast<double>(s.n) * unit_;
    }
    res_->residual_amin = residual;
    record(static_cast<int>(last_active));
  }

  // --- model_view: decision-time rollouts on a scratch state copy. ---
  //
  // A rollout replays the simulator's own discrete semantics: the same
  // event-horizon kernel (bank::advance_all), the same greedy
  // most-available hand-over rule and the same job accounting as the run
  // it forks from.
  // tests/test_lookahead pins the "lookahead" policy's lifetimes, decision
  // vectors and rollout counts on the Table 5 workloads.

  [[nodiscard]] rollout_outcome rollout(
      std::size_t candidate, std::size_t horizon_jobs) const override {
    BSCHED_ASSERT(load_ != nullptr && remaining_ >= 0);
    // Pooled bank snapshot (a lookahead policy rolls out at every decision
    // point — leasing from scratch_ makes the steady state allocation
    // free).
    kibam::scratch_pool::lease snapshot = scratch_.copy_of(states_);
    std::vector<kibam::discrete_state>& bats = *snapshot;
    std::int64_t steps = 0;
    // The remainder of the current epoch, then `horizon_jobs` more jobs
    // served greedily; idle epochs pass in between.
    if (!serve_rollout_job(bats, candidate, rate_, remaining_, steps)) {
      return {to_minutes(steps), true, 0};
    }
    std::size_t epoch = epoch_index_ + 1;
    for (std::size_t jobs_done = 1; jobs_done <= horizon_jobs;) {
      const load::epoch& e = load_->at(epoch);
      if (e.current_a <= 0) {
        const std::int64_t len = epoch_steps(e);
        if (len > 0) {
          bank_->advance_all(bats, kibam::bank::idle, {0, 0}, len);
        }
        steps += len;
        ++epoch;
        continue;
      }
      const auto choice = greedy_permille(bats);
      BSCHED_ASSERT(choice.has_value());
      const load::draw_rate rate = load::rate_for(e.current_a, bank_->steps());
      if (!serve_rollout_job(bats, *choice, rate, epoch_steps(e), steps)) {
        return {to_minutes(steps), true, 0};
      }
      ++jobs_done;
      ++epoch;
    }
    rollout_outcome out{to_minutes(steps), false, 0};
    bool first = true;
    for (std::size_t b = 0; b < bats.size(); ++b) {
      if (bats[b].empty) continue;
      const auto avail = static_cast<double>(
          disc_of(b).available_permille(bats[b].n, bats[b].m));
      out.health = first ? avail : std::min(out.health, avail);
      first = false;
    }
    return out;
  }

  [[nodiscard]] bool interchangeable(std::size_t a,
                                     std::size_t b) const override {
    // Same type, same charge counters and recovery timer (whose pending
    // tick can flip which twin survives longer); the discharge clock is
    // reset on activation, so it is excluded — the same notion of
    // interchangeability as the exact search's memo key.
    const kibam::discrete_state& sa = states_[a];
    const kibam::discrete_state& sb = states_[b];
    return bank_->type_of(a) == bank_->type_of(b) && sa.n == sb.n &&
           sa.m == sb.m && sa.recovery_elapsed == sb.recovery_elapsed &&
           sa.empty == sb.empty;
  }

 private:
  /// Advances `steps` ticks with `active` drawing `rate` (bank::idle
  /// rests every battery), counting `steps` down; stops early only when
  /// the active battery dies. A recorded run caps each kernel call at the
  /// next sample tick and samples there; the death-step sample is left to
  /// begin_service or finish, which know whom to attribute it to.
  kibam::step_event advance(std::size_t active, const load::draw_rate& rate,
                            std::int64_t& steps) {
    while (steps > 0) {
      const std::int64_t span =
          opts_.record_trace
              ? std::min(steps, sample_period_ - step_count_ % sample_period_)
              : steps;
      const kibam::advance_result a =
          bank_->advance_all(states_, active, rate, span);
      step_count_ += a.steps;
      steps -= a.steps;
      if (a.event == kibam::step_event::died) return a.event;
      record(active == kibam::bank::idle ? -1 : static_cast<int>(active));
    }
    return kibam::step_event::none;
  }

  [[nodiscard]] bool all_empty() const {
    return std::ranges::all_of(
        states_, [](const kibam::discrete_state& s) { return s.empty; });
  }

  [[nodiscard]] const kibam::discretization& disc_of(std::size_t b) const {
    return bank_->disc(b);
  }

  [[nodiscard]] std::int64_t epoch_steps(const load::epoch& e) const {
    return static_cast<std::int64_t>(std::llround(e.duration_min / t_step_));
  }

  [[nodiscard]] double to_minutes(std::int64_t steps) const {
    return static_cast<double>(steps) * t_step_;
  }

  /// Greedy most-available choice on scratch states (permille values are
  /// comparable across types because the bank shares one charge unit).
  [[nodiscard]] std::optional<std::size_t> greedy_permille(
      const std::vector<kibam::discrete_state>& bats) const {
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < bats.size(); ++i) {
      if (bats[i].empty) continue;
      if (!best || disc_of(i).available_permille(bats[i].n, bats[i].m) >
                       disc_of(*best).available_permille(bats[*best].n,
                                                         bats[*best].m)) {
        best = i;
      }
    }
    return best;
  }

  /// Serves `total` steps of a job epoch at `rate` on scratch states with
  /// `active` on; mid-job hand-overs fall to the greedy rule. Returns
  /// false when the whole system died inside the segment.
  bool serve_rollout_job(std::vector<kibam::discrete_state>& bats,
                         std::size_t active, const load::draw_rate& rate,
                         std::int64_t total, std::int64_t& steps) const {
    bats[active].discharge_elapsed = 0;
    while (total > 0) {
      const kibam::advance_result a =
          bank_->advance_all(bats, active, rate, total);
      steps += a.steps;
      total -= a.steps;
      if (a.event == kibam::step_event::died) {
        // Hand over even when the death lands on the segment's final step:
        // the greedy pick's zeroed discharge clock is observable state.
        const auto next = greedy_permille(bats);
        if (!next) return false;
        active = *next;
        bats[active].discharge_elapsed = 0;
      }
    }
    return true;
  }

  const kibam::bank* bank_;
  sim_options opts_;
  std::vector<kibam::discrete_state> states_;
  sim_result* res_ = nullptr;
  const load::trace* load_ = nullptr;
  double t_step_;
  double unit_;
  std::int64_t sample_period_;
  std::int64_t step_count_ = 0;
  std::int64_t remaining_ = 0;
  std::size_t epoch_index_ = 0;
  load::draw_rate rate_{0, 0};
  bool pending_record_ = false;
  /// Rollout scratch states (mutable: rollout() is logically const — it
  /// only ever steps pooled copies, never states_ itself).
  mutable kibam::scratch_pool scratch_;

  void record(int active) {
    if (!opts_.record_trace || step_count_ % sample_period_ != 0) return;
    trace_point pt;
    pt.time_min = now();
    pt.active = active;
    for (std::size_t b = 0; b < states_.size(); ++b) {
      const kibam::discrete_state& s = states_[b];
      pt.total_amin.push_back(static_cast<double>(s.n) * unit_);
      const kibam::state cont = disc_of(b).to_continuous(s.n, s.m);
      pt.available_amin.push_back(
          kibam::available_charge(disc_of(b).params(), cont));
    }
    res_->trace.push_back(std::move(pt));
  }
};

/// Analytic KiBaM backend: segment-exact closed-form advancement with
/// exact death-time location.
class continuous_model : public model_view {
 public:
  static constexpr const char* kName = "simulate_continuous";

  continuous_model(const std::vector<kibam::battery_parameters>& batteries,
                   const sim_options& opts)
      : batteries_(batteries), opts_(opts) {
    require(!batteries_.empty(), "simulate: need at least one battery");
    for (const auto& p : batteries_) kibam::validate(p);
    states_.reserve(batteries_.size());
    for (const auto& p : batteries_) states_.push_back(kibam::full(p));
    empty_.assign(batteries_.size(), false);
  }

  void attach(sim_result& res, const load::trace& load) {
    res_ = &res;
    load_ = &load;
  }

  [[nodiscard]] model_info info() const { return {nullptr, load_}; }

  [[nodiscard]] double now() const { return now_; }

  [[nodiscard]] std::vector<battery_view> views() const {
    std::vector<battery_view> out;
    out.reserve(batteries_.size());
    for (std::size_t i = 0; i < batteries_.size(); ++i) {
      out.push_back({i, states_[i].gamma,
                     kibam::available_charge(batteries_[i], states_[i]),
                     empty_[i] != false});
    }
    return out;
  }

  void record_initial() { record(now_, states_, -1); }

  void idle(const load::epoch& e) {
    advance_recorded(e.duration_min, std::nullopt, 0);
  }

  void begin_epoch(const load::epoch& e, std::size_t index) {
    left_ = e.duration_min;
    current_ = e.current_a;
    epoch_index_ = index;
  }

  void begin_service(std::size_t /*active*/) {}

  serve_event serve(std::size_t active) {
    while (left_ > 1e-12) {
      const auto death = kibam::time_to_empty(batteries_[active],
                                              states_[active], current_,
                                              left_);
      if (!death) {
        advance_recorded(left_, active, current_);
        return serve_event::epoch_done;
      }
      advance_recorded(*death, active, current_);
      left_ -= *death;
      empty_[active] = true;
      if (std::ranges::all_of(empty_, [](bool b) { return b; })) {
        return serve_event::system_dead;
      }
      return serve_event::handover;
    }
    return serve_event::epoch_done;
  }

  void finish(std::size_t /*last_active*/) {
    res_->lifetime_min = now_;
    double residual = 0;
    for (const auto& s : states_) residual += s.gamma;
    res_->residual_amin = residual;
  }

  // --- model_view: analytic rollouts, the continuous twin of the
  // discrete backend's — segment-exact advancement, greedy hand-overs,
  // the same job accounting. ---

  [[nodiscard]] rollout_outcome rollout(
      std::size_t candidate, std::size_t horizon_jobs) const override {
    BSCHED_ASSERT(load_ != nullptr);
    std::vector<kibam::state> states = states_;  // scratch snapshot
    std::vector<bool> empty = empty_;
    rollout_outcome out;
    std::size_t epoch = epoch_index_;
    double left = left_;
    double current = current_;
    std::size_t active = candidate;
    for (std::size_t jobs_done = 0;;) {
      // Serve `left` minutes at `current` with `active` on; hand-overs
      // fall to the greedy rule.
      while (left > 1e-12) {
        const auto death = kibam::time_to_empty(batteries_[active],
                                                states[active], current,
                                                left);
        const double dt = death ? *death : left;
        for (std::size_t i = 0; i < states.size(); ++i) {
          states[i] = kibam::advance(batteries_[i], states[i],
                                     i == active ? current : 0.0, dt);
        }
        out.survived_min += dt;
        left -= dt;
        if (!death) break;
        empty[active] = true;
        const auto next = greedy_available(states, empty);
        if (!next) {
          out.died = true;
          return out;
        }
        active = *next;
      }
      ++jobs_done;
      ++epoch;
      if (jobs_done > horizon_jobs) break;
      // Cross idle epochs to the next job.
      for (;; ++epoch) {
        const load::epoch& e = load_->at(epoch);
        if (e.current_a > 0) {
          left = e.duration_min;
          current = e.current_a;
          break;
        }
        for (std::size_t i = 0; i < states.size(); ++i) {
          states[i] = kibam::advance(batteries_[i], states[i], 0.0,
                                     e.duration_min);
        }
        out.survived_min += e.duration_min;
      }
      const auto choice = greedy_available(states, empty);
      BSCHED_ASSERT(choice.has_value());
      active = *choice;
    }
    bool first = true;
    for (std::size_t i = 0; i < states.size(); ++i) {
      if (empty[i]) continue;
      const double avail = kibam::available_charge(batteries_[i], states[i]);
      out.health = first ? avail : std::min(out.health, avail);
      first = false;
    }
    return out;
  }

  [[nodiscard]] bool interchangeable(std::size_t a,
                                     std::size_t b) const override {
    return batteries_[a] == batteries_[b] &&
           states_[a].gamma == states_[b].gamma &&
           states_[a].delta == states_[b].delta && empty_[a] == empty_[b];
  }

 private:
  [[nodiscard]] std::optional<std::size_t> greedy_available(
      const std::vector<kibam::state>& states,
      const std::vector<bool>& empty) const {
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < states.size(); ++i) {
      if (empty[i]) continue;
      if (!best || kibam::available_charge(batteries_[i], states[i]) >
                       kibam::available_charge(batteries_[*best],
                                               states[*best])) {
        best = i;
      }
    }
    return best;
  }

  void record(double time_min, const std::vector<kibam::state>& states,
              int active) {
    if (!opts_.record_trace) return;
    trace_point pt;
    pt.time_min = time_min;
    pt.active = active;
    for (std::size_t i = 0; i < batteries_.size(); ++i) {
      pt.total_amin.push_back(states[i].gamma);
      pt.available_amin.push_back(
          kibam::available_charge(batteries_[i], states[i]));
    }
    res_->trace.push_back(std::move(pt));
  }

  // Advances every battery by dt; `active` (if any) draws `current`.
  void advance_all(double dt, std::optional<std::size_t> active,
                   double current) {
    for (std::size_t i = 0; i < batteries_.size(); ++i) {
      const double draw = (active && *active == i) ? current : 0.0;
      states_[i] = kibam::advance(batteries_[i], states_[i], draw, dt);
    }
    now_ += dt;
  }

  // Advances by dt exactly as an untraced run does; a recorded run also
  // samples every sample_min into the segment (each evaluated on a copy
  // from the segment's start state) and at its end.
  void advance_recorded(double dt, std::optional<std::size_t> active,
                        double current) {
    const int who = active ? static_cast<int>(*active) : -1;
    if (opts_.record_trace) {
      std::vector<kibam::state> sample(states_.size());
      for (double k = 1; k * opts_.sample_min < dt - 1e-12; ++k) {
        const double offset = k * opts_.sample_min;
        for (std::size_t i = 0; i < batteries_.size(); ++i) {
          const double draw = (active && *active == i) ? current : 0.0;
          sample[i] = kibam::advance(batteries_[i], states_[i], draw, offset);
        }
        record(now_ + offset, sample, who);
      }
    }
    advance_all(dt, active, current);
    if (dt > 1e-12) record(now_, states_, who);
  }

  std::vector<kibam::battery_parameters> batteries_;
  sim_options opts_;
  std::vector<kibam::state> states_;
  std::vector<bool> empty_;
  sim_result* res_ = nullptr;
  const load::trace* load_ = nullptr;
  double now_ = 0;
  double left_ = 0;
  double current_ = 0;
  std::size_t epoch_index_ = 0;
};

}  // namespace

sim_result simulate_discrete(const kibam::bank& bank, const load::trace& load,
                             policy& pol, const sim_options& opts) {
  discrete_model model{bank, opts};
  return run_simulation(model, load, pol, opts);
}

sim_result simulate_discrete(const kibam::discretization& disc,
                             std::size_t battery_count,
                             const load::trace& load, policy& pol,
                             const sim_options& opts) {
  const kibam::bank bank{disc, battery_count};
  return simulate_discrete(bank, load, pol, opts);
}

sim_result simulate_continuous(
    const std::vector<kibam::battery_parameters>& batteries,
    const load::trace& load, policy& pol, const sim_options& opts) {
  continuous_model model{batteries, opts};
  return run_simulation(model, load, pol, opts);
}

}  // namespace bsched::sched
