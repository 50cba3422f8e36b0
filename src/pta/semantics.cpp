#include "pta/semantics.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace bsched::pta {

namespace {

// Bound on one collapsed delay run: a model that can idle this long
// without enabling an edge or saturating its clocks is rejected.
constexpr std::int64_t max_delay_run = 10'000'000;

bool satisfies(const clock_constraint& cc, std::int32_t clock_value,
               std::span<const std::int64_t> vars) {
  const std::int64_t bound = cc.bound.eval(vars);
  switch (cc.op) {
    case cmp::lt: return clock_value < bound;
    case cmp::le: return clock_value <= bound;
    case cmp::ge: return clock_value >= bound;
    case cmp::gt: return clock_value > bound;
    case cmp::eq: return clock_value == bound;
  }
  return false;
}

bool location_invariant_holds(const network& net, const dstate& s,
                              automaton_id a) {
  const location& loc = net.at(a).locations()[s.locations[a]];
  return std::ranges::all_of(loc.invariant, [&](const clock_constraint& cc) {
    return satisfies(cc, s.clocks[cc.clock], s.vars);
  });
}

/// True when the invariants of every automaton hold in `s`.
bool invariants_hold(const network& net, const dstate& s) {
  for (automaton_id a = 0; a < net.automata_count(); ++a) {
    if (!location_invariant_holds(net, s, a)) return false;
  }
  return true;
}

bool edge_enabled(const dstate& s, automaton_id a, const edge& e) {
  BSCHED_ASSERT(s.locations[a] == e.from);
  for (const clock_constraint& cc : e.clock_guards) {
    if (!satisfies(cc, s.clocks[cc.clock], s.vars)) return false;
  }
  return !e.guard.valid() || e.guard.eval(s.vars) != 0;
}

/// Applies one edge's effects (assignments, resets) to `target`.
void apply_edge(const network& net, const edge& e, dstate& target,
                std::int64_t& cost) {
  for (const assignment& a : e.assignments) a.apply(target.vars);
  for (const clock_id r : e.resets) target.clocks[r] = 0;
  for (const clock_set& cs : e.clock_sets) {
    const std::int64_t v = cs.value.eval(target.vars);
    require(v >= 0 && v <= net.clock_cap(cs.clock),
            "semantics: clock assignment out of range");
    target.clocks[cs.clock] = static_cast<std::int32_t>(v);
  }
  if (e.cost_update.valid()) {
    const std::int64_t inc = e.cost_update.eval(target.vars);
    require(inc >= 0, "semantics: negative cost update");
    cost += inc;
  }
}

/// Appends the action successors of `s` to `out`.
void action_successors(const network& net, const dstate& s,
                       std::vector<transition>& out) {
  const std::size_t automata = net.automata_count();
  const bool any_committed = [&] {
    for (automaton_id a = 0; a < automata; ++a) {
      if (net.at(a).locations()[s.locations[a]].committed) return true;
    }
    return false;
  }();

  const auto committed_ok = [&](const std::vector<fired_edge>& fired) {
    if (!any_committed) return true;
    return std::ranges::any_of(fired, [&](const fired_edge& fe) {
      return net.at(fe.automaton)
          .locations()[net.at(fe.automaton).edges()[fe.edge_index].from]
          .committed;
    });
  };

  const auto finish = [&](dstate&& target, std::int64_t cost,
                          std::vector<fired_edge>&& fired) {
    for (const fired_edge& fe : fired) {
      target.locations[fe.automaton] = static_cast<std::uint32_t>(
          net.at(fe.automaton).edges()[fe.edge_index].to);
    }
    if (!committed_ok(fired)) return;
    if (!invariants_hold(net, target)) return;
    out.push_back(
        {std::move(target), cost, 0, std::move(fired)});
  };

  for (automaton_id a = 0; a < automata; ++a) {
    const automaton& am = net.at(a);
    for (const std::size_t ei : am.outgoing(s.locations[a])) {
      const edge& e = am.edges()[ei];
      if (!edge_enabled(s, a, e)) continue;
      if (e.dir == sync_dir::none) {
        dstate target = s;
        std::int64_t cost = 0;
        apply_edge(net, e, target, cost);
        finish(std::move(target), cost, {{a, ei}});
      } else if (e.dir == sync_dir::send && !net.is_broadcast(e.channel)) {
        // Binary: pair with each enabled receiver in another automaton.
        for (automaton_id b = 0; b < automata; ++b) {
          if (b == a) continue;
          const automaton& bm = net.at(b);
          for (const std::size_t rj : bm.outgoing(s.locations[b])) {
            const edge& r = bm.edges()[rj];
            if (r.dir != sync_dir::receive || r.channel != e.channel) {
              continue;
            }
            if (!edge_enabled(s, b, r)) continue;
            dstate target = s;
            std::int64_t cost = 0;
            apply_edge(net, e, target, cost);   // sender updates first
            apply_edge(net, r, target, cost);
            finish(std::move(target), cost, {{a, ei}, {b, rj}});
          }
        }
      } else if (e.dir == sync_dir::send) {
        // Broadcast: sender plus one enabled receiver edge per automaton
        // that has any (maximal progress); branch over per-automaton
        // receiver choices.
        std::vector<std::vector<std::size_t>> choices(automata);
        for (automaton_id b = 0; b < automata; ++b) {
          if (b == a) continue;
          const automaton& bm = net.at(b);
          for (const std::size_t rj : bm.outgoing(s.locations[b])) {
            const edge& r = bm.edges()[rj];
            if (r.dir == sync_dir::receive && r.channel == e.channel &&
                edge_enabled(s, b, r)) {
              choices[b].push_back(rj);
            }
          }
        }
        std::vector<fired_edge> fired{{a, ei}};
        const std::function<void(automaton_id)> expand =
            [&](automaton_id b) {
              if (b == automata) {
                dstate target = s;
                std::int64_t cost = 0;
                apply_edge(net, e, target, cost);  // sender first
                for (std::size_t k = 1; k < fired.size(); ++k) {
                  apply_edge(net,
                             net.at(fired[k].automaton)
                                 .edges()[fired[k].edge_index],
                             target, cost);
                }
                auto fired_copy = fired;
                finish(std::move(target), cost, std::move(fired_copy));
                return;
              }
              if (choices[b].empty()) {
                expand(b + 1);
                return;
              }
              for (const std::size_t rj : choices[b]) {
                fired.push_back({b, rj});
                expand(b + 1);
                fired.pop_back();
              }
            };
        expand(0);
      }
      // Receive edges are handled from their matching senders.
    }
  }
}

/// Computes the unit-delay successor; false when delay is illegal.
bool try_delay(const network& net, const dstate& s, transition& out) {
  for (automaton_id a = 0; a < net.automata_count(); ++a) {
    if (net.at(a).locations()[s.locations[a]].committed) return false;
  }
  dstate target = s;
  for (clock_id c = 0; c < target.clocks.size(); ++c) {
    const std::int32_t cap = net.clock_cap(c);
    if (target.clocks[c] < cap) ++target.clocks[c];
  }
  if (!invariants_hold(net, target)) return false;
  std::int64_t cost = 0;
  for (automaton_id a = 0; a < net.automata_count(); ++a) {
    const location& loc = net.at(a).locations()[s.locations[a]];
    if (loc.cost_rate.valid()) {
      const std::int64_t rate = loc.cost_rate.eval(s.vars);
      require(rate >= 0, "semantics: negative cost rate");
      cost += rate;
    }
  }
  out = {std::move(target), cost, 1, {}};
  return true;
}

}  // namespace

std::size_t dstate_hash::operator()(const dstate& s) const noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t w) {
    h ^= w;
    h *= 1099511628211ULL;
  };
  for (const std::uint32_t l : s.locations) mix(l);
  for (const std::int64_t v : s.vars) mix(static_cast<std::uint64_t>(v));
  for (const std::int32_t c : s.clocks) mix(static_cast<std::uint64_t>(c));
  return static_cast<std::size_t>(h);
}

std::string transition::describe(const network& net) const {
  if (edges.empty()) return "delay " + std::to_string(delay);
  std::string out;
  for (const fired_edge& fe : edges) {
    const automaton& a = net.at(fe.automaton);
    const edge& e = a.edges()[fe.edge_index];
    if (!out.empty()) out += " , ";
    out += a.name() + ": " + a.locations()[e.from].name + " -> " +
           a.locations()[e.to].name;
    if (e.dir != sync_dir::none) {
      out += e.dir == sync_dir::send ? " !" : " ?";
      out += net.channel_name(e.channel);
    }
  }
  return out;
}

semantics::semantics(const network& net) : net_(&net) { net.check(); }

dstate semantics::initial() const {
  dstate s;
  s.locations.reserve(net_->automata_count());
  for (automaton_id a = 0; a < net_->automata_count(); ++a) {
    s.locations.push_back(static_cast<std::uint32_t>(net_->at(a).initial()));
  }
  s.vars = net_->initial_vars();
  s.clocks.assign(net_->clock_count(), 0);
  require(invariants_hold(*net_, s),
          "semantics: initial state violates invariants");
  return s;
}

std::vector<transition> semantics::successors(const dstate& s) const {
  std::vector<transition> out;
  action_successors(*net_, s, out);
  transition delay;
  if (!try_delay(*net_, s, delay)) return out;
  if (!out.empty()) {
    out.push_back(std::move(delay));
    return out;
  }
  // Chase the delay chain until an action becomes enabled (or delay
  // becomes illegal), merging the steps into one transition.
  std::int64_t steps = delay.delay;
  std::int64_t cost = delay.cost;
  dstate cur = std::move(delay.target);
  while (steps < max_delay_run) {
    std::vector<transition> actions;
    action_successors(*net_, cur, actions);
    if (!actions.empty()) break;
    transition next;
    if (!try_delay(*net_, cur, next)) break;
    if (next.target == cur) {
      // Clocks saturated at their caps: nothing will ever enable and
      // idling only adds cost, so this is a time-divergent dead end, not
      // a successor.
      return {};
    }
    ++steps;
    cost += next.cost;
    cur = std::move(next.target);
  }
  require(steps < max_delay_run,
          "semantics: delay run exceeded max_delay_run "
          "(model can idle forever?)");
  out.push_back({std::move(cur), cost, steps, {}});
  return out;
}

}  // namespace bsched::pta
