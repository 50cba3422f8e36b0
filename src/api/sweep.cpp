#include "api/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>
#include <unordered_map>
#include <variant>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/spec.hpp"
#include "util/streams.hpp"

namespace bsched::api {

bool stochastic(const scenario& scn) {
  // Must mirror exactly what replicate() below re-seeds: a cell counts
  // as stochastic iff replication would actually change it. Policies are
  // constructed from their spec string alone, so anything replicate()
  // leaves untouched — custom registrations included — runs
  // bit-identically every replication and may be cached.
  if (std::holds_alternative<random_load_spec>(scn.load.source())) {
    return true;
  }
  try {
    return parse_spec(scn.policy).name == "random";
  } catch (const error&) {
    return false;
  }
}

std::vector<std::size_t> load_groups(const sweep& sw) {
  // The policy column of the value key blanked: cells agreeing on the
  // rest form one group, anchored at its first grid index.
  std::vector<std::size_t> out(sw.cells.size());
  std::unordered_map<std::string, std::size_t> first;
  for (std::size_t i = 0; i < sw.cells.size(); ++i) {
    scenario probe = sw.cells[i];
    probe.policy.clear();
    out[i] = first.try_emplace(cell_key(probe), i).first->second;
  }
  return out;
}

std::size_t load_group(const sweep& sw, std::size_t cell) {
  require(cell < sw.cells.size(), "load_group: cell index out of range");
  return load_groups(sw)[cell];
}

namespace {

/// `group_hint`, when set, is the cell's precomputed load-group index.
scenario replicate_impl(const sweep& sw, std::size_t cell,
                        std::size_t replication,
                        const std::size_t* group_hint) {
  require(cell < sw.cells.size(), "replicate: cell index out of range");
  scenario out = sw.cells[cell];
  if (!sw.reseed) return out;
  const std::uint64_t base = rng::derive(sw.seed, cell, replication);

  if (const auto* r = std::get_if<random_load_spec>(&out.load.source())) {
    // With pair_by_load the load stream is keyed by the cell's load
    // group, so policies over the same workload grid draw identical
    // per-replication workloads; the policy stream below stays
    // per-cell either way.
    std::uint64_t load_base = base;
    if (sw.pair_by_load) {
      const std::size_t group =
          group_hint != nullptr ? *group_hint : load_group(sw, cell);
      load_base = rng::derive(sw.seed, group, replication);
    }
    random_load_spec reseeded = *r;
    reseeded.seed = rng::derive(load_base, streams::load, r->seed);
    out.load = load_spec{reseeded};
  }

  // Only the registry's "random" policy is stochastic; its declared seed
  // folds into the derivation like the load's. Malformed policy strings
  // are left untouched so the error surfaces in the cell's run_result
  // rather than sinking the sweep here.
  try {
    spec s = parse_spec(out.policy);
    if (s.name == "random") {
      const std::uint64_t declared = s.get_u64("seed", 0);
      s.params["seed"] =
          std::to_string(rng::derive(base, streams::policy, declared));
      out.policy = s.str();
    }
  } catch (const error&) {
  }
  return out;
}

}  // namespace

scenario replicate(const sweep& sw, std::size_t cell,
                   std::size_t replication) {
  return replicate_impl(sw, cell, replication, nullptr);
}

scenario replicate(const sweep& sw, std::size_t cell,
                   std::size_t replication,
                   const std::vector<std::size_t>& groups) {
  require(cell < sw.cells.size(), "replicate: cell index out of range");
  require(groups.size() == sw.cells.size(),
          "replicate: groups must come from load_groups(sw)");
  return replicate_impl(sw, cell, replication, &groups[cell]);
}

namespace {

// Fixed-width raw bytes: exact (every bit of a double, -0.0 and NaN
// payloads included) and an order of magnitude cheaper than formatting.
template <class T>
void key_raw(std::string& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof v);
}

void key_epochs(std::string& out, const std::vector<load::epoch>& epochs) {
  key_raw<std::uint64_t>(out, epochs.size());  // length prefix
  for (const load::epoch& e : epochs) {
    key_raw(out, e.duration_min);
    key_raw(out, e.current_a);
  }
}

struct load_key_visitor {
  std::string& out;
  void operator()(load::test_load l) const {
    out += 'n';
    key_raw(out, l);
  }
  void operator()(const load::trace& t) const {
    out += 't';
    key_epochs(out, t.prefix());
    key_epochs(out, t.cycle());
  }
  void operator()(const random_load_spec& r) const {
    out += r.generator == random_load_spec::kind::markov ? 'm' : 'r';
    key_raw<std::uint64_t>(out, r.count);
    key_raw(out, r.p);
    key_raw(out, r.idle_min);
    key_raw(out, r.seed);
  }
};

}  // namespace

std::string cell_key(const scenario& scn) {
  std::string out;
  out.reserve(128);
  key_raw<std::uint64_t>(out, scn.batteries.size());  // length prefix
  for (const kibam::battery_parameters& b : scn.batteries) {
    key_raw(out, b.capacity_amin);
    key_raw(out, b.c);
    key_raw(out, b.k_prime);
  }
  std::visit(load_key_visitor{out}, scn.load.source());
  out += scn.model == fidelity::discrete ? 'd' : 'c';
  key_raw(out, scn.steps.time_step_min);
  key_raw(out, scn.steps.charge_unit_amin);
  key_raw(out, scn.sim.horizon_min);
  out += scn.sim.record_trace ? '1' : '0';
  key_raw(out, scn.sim.sample_min);
  // The policy spec is free-form text, so it goes last: everything before
  // it is fixed-width or length-prefixed, so the remainder is unambiguous.
  out += scn.policy;
  return out;
}

void cell_accumulator::add(const run_result& r, bool cache_hit) {
  if (cache_hit) ++cache_hits;
  search += r.search;  // every delivery counts, failed or cached alike
  if (!r.ok()) {
    ++failures;
    return;
  }
  const double x = r.sim.lifetime_min;
  ++n;
  if (n == 1) {
    min = max = x;
  } else {
    min = std::min(min, x);
    max = std::max(max, x);
  }
  // Welford's online update: numerically stable and single-pass, so the
  // sink never has to retain the per-replication samples.
  const double delta = x - mean;
  mean += delta / static_cast<double>(n);
  m2 += delta * (x - mean);
  lifetime.add(x);
  residual.add(r.sim.residual_amin);
}

void cell_accumulator::merge(const cell_accumulator& other) {
  failures += other.failures;
  cache_hits += other.cache_hits;
  search += other.search;
  lifetime.merge(other.lifetime);
  residual.merge(other.residual);
  if (other.n == 0) return;
  if (n == 0) {
    n = other.n;
    mean = other.mean;
    m2 = other.m2;
    min = other.min;
    max = other.max;
    return;
  }
  // Chan et al. parallel combine of the Welford moments.
  const double na = static_cast<double>(n);
  const double nb = static_cast<double>(other.n);
  const double total = na + nb;
  const double delta = other.mean - mean;
  mean += delta * (nb / total);
  m2 += other.m2 + delta * delta * (na * nb / total);
  n += other.n;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

void cell_accumulator::finalize(cell_summary& out) const {
  out.n = n;
  out.failures = failures;
  out.cache_hits = cache_hits;
  out.search = search;
  out.mean_min = mean;
  out.min_min = min;
  out.max_min = max;
  if (n >= 2) {
    const double nn = static_cast<double>(n);
    out.stddev_min = std::sqrt(m2 / (nn - 1));
    out.ci95_min = 1.959963984540054 * out.stddev_min / std::sqrt(nn);
  } else {
    out.stddev_min = 0;
    out.ci95_min = 0;
  }
  if (n > 0) {
    out.p10_min = lifetime.quantile(0.10);
    out.p50_min = lifetime.quantile(0.50);
    out.p90_min = lifetime.quantile(0.90);
    out.p50_residual_amin = residual.quantile(0.50);
  } else {
    out.p10_min = 0;
    out.p50_min = 0;
    out.p90_min = 0;
    out.p50_residual_amin = 0;
  }
}

summarize::summarize(const sweep& sw)
    : cells_(sw.cells.size()), agg_(sw.cells.size()) {
  for (std::size_t i = 0; i < sw.cells.size(); ++i) {
    cells_[i].cell = i;
    cells_[i].label = sw.cells[i].describe();
    cells_[i].load = sw.cells[i].load.describe();
    cells_[i].policy = sw.cells[i].policy;
    cells_[i].fidelity = name(sw.cells[i].model);
  }
}

void summarize::consume(const sweep_result& r) {
  require(r.cell < cells_.size(), "summarize: cell index out of range");
  agg_[r.cell].add(r.result, r.cache_hit);
  agg_[r.cell].finalize(cells_[r.cell]);
}

namespace {

constexpr std::size_t npos = static_cast<std::size_t>(-1);
constexpr double unseen = std::numeric_limits<double>::quiet_NaN();

}  // namespace

paired::paired(const sweep& sw,
               std::vector<std::pair<std::size_t, std::size_t>> cell_pairs)
    : replications_(sw.replications), slot_of_(sw.cells.size(), npos) {
  pairs_.reserve(cell_pairs.size());
  m2_.assign(cell_pairs.size(), 0.0);
  const auto slot = [&](std::size_t cell) {
    require(cell < sw.cells.size(), "paired: cell index out of range");
    if (slot_of_[cell] == npos) {
      slot_of_[cell] = lifetimes_.size();
      lifetimes_.emplace_back(replications_, unseen);
    }
    return slot_of_[cell];
  };
  const std::vector<std::size_t> groups =
      cell_pairs.empty() ? std::vector<std::size_t>{} : load_groups(sw);
  for (const auto& [a, b] : cell_pairs) {
    require(a != b, "paired: a pair must name two distinct cells");
    slot(a);
    slot(b);
    // Pairing is only meaningful against the same workload, so both
    // cells must agree on everything but the policy...
    require(groups[a] == groups[b],
            "paired: cells " + std::to_string(a) + " and " +
                std::to_string(b) + " differ in more than the policy");
    // ...and replications of a *random* load must actually share their
    // derived workload, which takes sweep::pair_by_load (without it the
    // load stream is keyed per cell and the difference statistic would
    // silently keep all the workload variance it exists to cancel).
    require(!sw.reseed || sw.pair_by_load ||
                !std::holds_alternative<random_load_spec>(
                    sw.cells[a].load.source()),
            "paired: random-load pairs need sweep::pair_by_load so "
            "replications share a workload");
    pair_summary p;
    p.cell_a = a;
    p.cell_b = b;
    p.label = sw.cells[a].describe() + " vs " + sw.cells[b].describe();
    pairs_.push_back(std::move(p));
  }
}

void paired::consume(const sweep_result& r) {
  require(r.cell < slot_of_.size(), "paired: cell index out of range");
  require(r.replication < replications_,
          "paired: replication index out of range");
  const std::size_t slot = slot_of_[r.cell];
  if (slot == npos) return;  // cell participates in no pair
  lifetimes_[slot][r.replication] =
      r.result.ok() ? r.result.sim.lifetime_min : unseen;
  // A replication folds once its second side arrives. Failures on either
  // side cannot be told apart from not-yet-delivered here, so fold from
  // the pair's later cell (grid order: the larger index) and count the
  // skip there.
  for (std::size_t p = 0; p < pairs_.size(); ++p) {
    const std::size_t later = std::max(pairs_[p].cell_a, pairs_[p].cell_b);
    if (later == r.cell) fold(p, r.replication);
  }
}

void paired::fold(std::size_t pair_index, std::size_t replication) {
  pair_summary& p = pairs_[pair_index];
  const double a = lifetimes_[slot_of_[p.cell_a]][replication];
  const double b = lifetimes_[slot_of_[p.cell_b]][replication];
  if (std::isnan(a) || std::isnan(b)) {
    ++p.skipped;
    return;
  }
  const double diff = a - b;
  if (diff > 0) {
    ++p.wins_a;
  } else if (diff < 0) {
    ++p.wins_b;
  } else {
    ++p.ties;
  }
  ++p.n;
  const double delta = diff - p.mean_diff_min;
  p.mean_diff_min += delta / static_cast<double>(p.n);
  m2_[pair_index] += delta * (diff - p.mean_diff_min);
  if (p.n >= 2) {
    const double n = static_cast<double>(p.n);
    p.stddev_min = std::sqrt(m2_[pair_index] / (n - 1));
    p.ci95_min = 1.959963984540054 * p.stddev_min / std::sqrt(n);
  } else {
    p.stddev_min = 0;
    p.ci95_min = 0;
  }
}

}  // namespace bsched::api
