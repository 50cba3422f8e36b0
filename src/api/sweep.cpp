#include "api/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>
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

scenario replicate(const sweep& sw, std::size_t cell,
                   std::size_t replication) {
  require(cell < sw.cells.size(), "replicate: cell index out of range");
  scenario out = sw.cells[cell];
  if (!sw.reseed) return out;
  const std::uint64_t base = rng::derive(sw.seed, cell, replication);

  if (const auto* r = std::get_if<random_load_spec>(&out.load.source())) {
    random_load_spec reseeded = *r;
    reseeded.seed = rng::derive(base, streams::load, r->seed);
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

void value_counts::add(double x) {
  require(!std::isnan(x), "value_counts: NaN sample");
  if (x == 0) x = 0;  // one key for -0 and +0
  const auto pos = std::lower_bound(
      entries_.begin(), entries_.end(), x,
      [](const value_count& e, double v) { return e.value < v; });
  if (pos != entries_.end() && pos->value == x) {
    ++pos->count;
  } else {
    entries_.insert(pos, value_count{x, 1});
  }
  ++total_;
}

void value_counts::merge(const value_counts& other) {
  if (other.entries_.empty()) return;
  std::vector<value_count> merged;
  merged.reserve(entries_.size() + other.entries_.size());
  auto a = entries_.begin();
  auto b = other.entries_.begin();
  while (a != entries_.end() && b != other.entries_.end()) {
    if (a->value < b->value) {
      merged.push_back(*a++);
    } else if (b->value < a->value) {
      merged.push_back(*b++);
    } else {
      merged.push_back(value_count{a->value, a->count + b->count});
      ++a;
      ++b;
    }
  }
  merged.insert(merged.end(), a, entries_.end());
  merged.insert(merged.end(), b, other.entries_.end());
  entries_ = std::move(merged);
  total_ += other.total_;
}

double value_counts::quantile(double q) const {
  if (entries_.empty() || std::isnan(q)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  // The first sample j whose rank j + 0.5 lies above the target; the
  // answer interpolates between samples j - 1 and j.
  auto j = static_cast<std::uint64_t>(target);
  if (!(target < static_cast<double>(j) + 0.5)) ++j;
  if (j == 0) return entries_.front().value;
  if (j >= total_) return entries_.back().value;
  std::uint64_t below = 0;  // samples in entries before `e`
  auto e = entries_.begin();
  while (below + e->count <= j - 1) below += (e++)->count;
  const double lo = e->value;
  if (below + e->count <= j) ++e;
  const double t = target - (static_cast<double>(j - 1) + 0.5);
  return lo + t * (e->value - lo);
}

value_counts value_counts::from_entries(std::vector<value_count> entries) {
  value_counts out;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    value_count& e = entries[i];
    if (e.value == 0) e.value = 0;  // one key for -0 and +0, as in add()
    require(!std::isnan(e.value) &&
                (i == 0 || entries[i - 1].value < e.value),
            "value_counts: values must strictly increase");
    require(e.count > 0, "value_counts: counts must be positive");
    require(e.count <= std::numeric_limits<std::uint64_t>::max() - out.total_,
            "value_counts: the total count overflows");
    out.total_ += e.count;
  }
  out.entries_ = std::move(entries);
  return out;
}

void cell_accumulator::add(const run_result& r, bool cache_hit) {
  if (cache_hit) ++cache_hits;
  search += r.search;  // every delivery counts, failed or cached alike
  if (!r.ok()) {
    ++failures;
    return;
  }
  lifetime.add(r.sim.lifetime_min);
  residual.add(r.sim.residual_amin);
}

void cell_accumulator::merge(const cell_accumulator& other) {
  failures += other.failures;
  cache_hits += other.cache_hits;
  search += other.search;
  lifetime.merge(other.lifetime);
  residual.merge(other.residual);
}

void cell_accumulator::finalize(cell_summary& out) const {
  out.n = n();
  out.failures = failures;
  out.cache_hits = cache_hits;
  out.search = search;
  const std::vector<value_count>& es = lifetime.entries();
  if (es.empty()) {
    out.mean_min = out.min_min = out.max_min = 0;
    out.stddev_min = out.ci95_min = 0;
    out.p10_min = out.p50_min = out.p90_min = out.p50_residual_amin = 0;
    return;
  }
  // Moments summed in key order from the smallest key: pure functions of
  // the counts, and a cell with one distinct value reports that value and
  // a zero spread exactly.
  const double nn = static_cast<double>(out.n);
  const double k0 = es.front().value;
  double shift = 0;
  for (const value_count& e : es) {
    shift += static_cast<double>(e.count) * (e.value - k0);
  }
  const double mean = k0 + shift / nn;
  double m2 = 0;
  for (const value_count& e : es) {
    const double d = e.value - mean;
    m2 += static_cast<double>(e.count) * (d * d);
  }
  out.mean_min = mean;
  out.min_min = k0;
  out.max_min = es.back().value;
  if (out.n >= 2) {
    out.stddev_min = std::sqrt(m2 / (nn - 1));
    out.ci95_min = 1.959963984540054 * out.stddev_min / std::sqrt(nn);
  } else {
    out.stddev_min = 0;
    out.ci95_min = 0;
  }
  out.p10_min = lifetime.quantile(0.10);
  out.p50_min = lifetime.quantile(0.50);
  out.p90_min = lifetime.quantile(0.90);
  out.p50_residual_amin = residual.quantile(0.50);
}

summarize::summarize(const sweep& sw)
    : cells_(sw.cells.size()),
      agg_(sw.cells.size()),
      stale_(sw.cells.size(), false) {
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
  stale_[r.cell] = true;
}

const std::vector<cell_summary>& summarize::cells() const {
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    if (!stale_[c]) continue;
    agg_[c].finalize(cells_[c]);
    stale_[c] = false;
  }
  return cells_;
}

}  // namespace bsched::api
