#include "dist/codec.hpp"

#include <cstdint>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/error.hpp"
#include "util/text.hpp"
#include "util/wire.hpp"

namespace bsched::dist {

namespace {

/// Current wire-format versions: the N of "bsched-shard vN" and of
/// "bsched-sweep vN". Each format bumps its own when its records change.
constexpr std::size_t shard_version = 5;
constexpr std::size_t sweep_version = 2;

void encode_counts(const char* tag, const api::value_counts& d,
                   std::ostream& out) {
  out << tag << " values=" << d.entries().size();
  for (const api::value_count& e : d.entries()) {
    out << ' ' << shortest_double(e.value) << ':' << e.count;
  }
  out << '\n';
}

/// Advances to the cell record numbered `index`, naming it the section —
/// or to the closing "end" after exactly `count` cells, and returns false.
bool next_cell(wire::reader& r, std::size_t index, std::size_t count) {
  r.section("cell list");
  r.advance("cell/end");
  if (r.tag() == "end") {
    if (index != count) {
      r.fail("cell count mismatch: sweep header says " +
             std::to_string(count) + ", stream carries " +
             std::to_string(index));
    }
    if (r.next()) r.fail("trailing content after 'end'");
    return false;
  }
  if (r.tag() != "cell") {
    r.fail("expected 'cell' or 'end' record, got '" + std::string{r.line()} +
           "' (a duplicated or out-of-place section?)");
  }
  r.section("cell " + std::to_string(index));
  if (r.size("index") != index) {
    r.fail("cell records out of order: expected index " +
           std::to_string(index));
  }
  return true;
}

api::value_counts decode_counts(const wire::reader& r) {
  std::vector<api::value_count> es =
      r.pairs<api::value_count, std::uint64_t>("values", "value");
  try {
    return api::value_counts::from_entries(std::move(es));
  } catch (const error& e) {
    r.fail(e.what());
  }
}

}  // namespace

std::string encode_str(const shard_aggregate& agg) {
  std::ostringstream out;
  out << "bsched-shard v" << shard_version << '\n';
  out << "shard index=" << agg.shard_index << " count=" << agg.shard_count
      << " first=" << agg.first_item << " last=" << agg.last_item << '\n';
  out << "sweep cells=" << agg.grid_cells
      << " replications=" << agg.replications << " seed=" << agg.seed
      << " reseed=" << (agg.reseed ? 1 : 0) << '\n';
  out << "stats runs=" << agg.stats.runs
      << " evaluated=" << agg.stats.evaluated
      << " cache_hits=" << agg.stats.cache_hits
      << " failures=" << agg.stats.failures << '\n';
  for (const cell_record& c : agg.cells) {
    out << "cell index=" << c.cell << '\n';
    out << "label=" << c.label << '\n';
    out << "load=" << c.load << '\n';
    out << "policy=" << c.policy << '\n';
    out << "fidelity=" << c.fidelity << '\n';
    out << "agg failures=" << c.agg.failures
        << " cache_hits=" << c.agg.cache_hits << '\n';
    const sched::search_stats& s = c.agg.search;
    out << "search nodes=" << s.nodes << " memo_hits=" << s.memo_hits
        << " pruned=" << s.pruned << " memo_entries=" << s.memo_entries
        << " rollouts=" << s.rollouts
        << " pruned_by_bound=" << s.pruned_by_bound
        << " incumbent_from_lookahead=" << s.incumbent_from_lookahead
        << '\n';
    encode_counts("lifetime", c.agg.lifetime, out);
    encode_counts("residual", c.agg.residual, out);
  }
  out << "end\n";
  return std::move(out).str();
}

shard_aggregate decode_str(const std::string& text) {
  wire::reader r{text, "dist::codec"};
  r.expect_magic("bsched-shard v" + std::to_string(shard_version));

  shard_aggregate agg;
  r.section("shard header");
  r.expect("shard");
  agg.shard_index = r.size("index");
  agg.shard_count = r.size("count");
  agg.first_item = r.size("first");
  agg.last_item = r.size("last");

  r.section("sweep header");
  r.expect("sweep");
  agg.grid_cells = r.size("cells");
  agg.replications = r.size("replications");
  agg.seed = r.u64("seed");
  agg.reseed = r.size("reseed") != 0;

  r.section("stats");
  r.expect("stats");
  agg.stats.runs = r.size("runs");
  agg.stats.evaluated = r.size("evaluated");
  agg.stats.cache_hits = r.size("cache_hits");
  agg.stats.failures = r.size("failures");

  while (next_cell(r, agg.cells.size(), agg.grid_cells)) {
    cell_record c;
    c.cell = agg.cells.size();
    c.label = r.expect_text("label");
    c.load = r.expect_text("load");
    c.policy = r.expect_text("policy");
    c.fidelity = r.expect_text("fidelity");
    r.expect("agg");
    c.agg.failures = r.size("failures");
    c.agg.cache_hits = r.size("cache_hits");
    r.expect("search");
    c.agg.search.nodes = r.u64("nodes");
    c.agg.search.memo_hits = r.u64("memo_hits");
    c.agg.search.pruned = r.u64("pruned");
    c.agg.search.memo_entries = r.u64("memo_entries");
    c.agg.search.rollouts = r.u64("rollouts");
    c.agg.search.pruned_by_bound = r.u64("pruned_by_bound");
    c.agg.search.incumbent_from_lookahead =
        r.u64("incumbent_from_lookahead");
    r.expect("lifetime");
    c.agg.lifetime = decode_counts(r);
    r.expect("residual");
    c.agg.residual = decode_counts(r);
    if (c.agg.residual.total() != c.agg.lifetime.total()) {
      r.fail("residual total " + std::to_string(c.agg.residual.total()) +
             " differs from the lifetime total " +
             std::to_string(c.agg.lifetime.total()));
    }
    agg.cells.push_back(std::move(c));
  }
  return agg;
}

namespace {

void encode_epochs(const char* tag, const std::vector<load::epoch>& es,
                   std::ostream& out) {
  out << tag << " epochs=" << es.size();
  for (const load::epoch& e : es) {
    out << ' ' << shortest_double(e.duration_min) << ':'
        << shortest_double(e.current_a);
  }
  out << '\n';
}

}  // namespace

std::string encode_sweep_str(const api::sweep& sw) {
  std::ostringstream out;
  out << "bsched-sweep v" << sweep_version << '\n';
  out << "sweep cells=" << sw.cells.size()
      << " replications=" << sw.replications << " seed=" << sw.seed
      << " reseed=" << (sw.reseed ? 1 : 0) << '\n';
  for (std::size_t i = 0; i < sw.cells.size(); ++i) {
    const api::scenario& scn = sw.cells[i];
    out << "cell index=" << i << " batteries=" << scn.batteries.size()
        << " model=" << api::name(scn.model) << '\n';
    out << "label=" << scn.label << '\n';
    for (const kibam::battery_parameters& b : scn.batteries) {
      out << "battery capacity=" << shortest_double(b.capacity_amin)
          << " c=" << shortest_double(b.c)
          << " k_prime=" << shortest_double(b.k_prime) << '\n';
    }
    // Paper/random loads serialize as their describe() round-trip form;
    // explicit traces (which describe() cannot round-trip) carry their
    // epochs verbatim behind the reserved "trace" marker.
    if (const auto* t = std::get_if<load::trace>(&scn.load.source())) {
      out << "load=trace\n";
      encode_epochs("prefix", t->prefix(), out);
      encode_epochs("cycle", t->cycle(), out);
    } else {
      out << "load=" << scn.load.describe() << '\n';
    }
    out << "policy=" << scn.policy << '\n';
    out << "steps time_step=" << shortest_double(scn.steps.time_step_min)
        << " charge_unit=" << shortest_double(scn.steps.charge_unit_amin)
        << '\n';
    out << "sim horizon=" << shortest_double(scn.sim.horizon_min)
        << " record_trace=" << (scn.sim.record_trace ? 1 : 0)
        << " sample=" << shortest_double(scn.sim.sample_min) << '\n';
  }
  out << "end\n";
  return std::move(out).str();
}

api::sweep decode_sweep_str(const std::string& text) {
  wire::reader r{text, "dist::codec"};
  r.section("sweep definition");
  r.expect_magic("bsched-sweep v" + std::to_string(sweep_version));

  api::sweep sw;
  r.expect("sweep");
  const std::size_t cell_count = r.size("cells");
  sw.replications = r.size("replications");
  sw.seed = r.u64("seed");
  sw.reseed = r.size("reseed") != 0;

  while (next_cell(r, sw.cells.size(), cell_count)) {
    const std::size_t batteries = r.size("batteries");
    const std::string_view model = r.value("model");

    api::scenario scn;
    if (model == api::name(api::fidelity::discrete)) {
      scn.model = api::fidelity::discrete;
    } else if (model == api::name(api::fidelity::continuous)) {
      scn.model = api::fidelity::continuous;
    } else {
      r.fail("unknown fidelity '" + std::string{model} + "'");
    }
    scn.label = r.expect_text("label");
    for (std::size_t b = 0; b < batteries; ++b) {
      r.expect("battery");
      kibam::battery_parameters p{};
      p.capacity_amin = r.real("capacity");
      p.c = r.real("c");
      p.k_prime = r.real("k_prime");
      scn.batteries.push_back(p);
    }
    const std::string_view load_text = r.expect_text("load");
    if (load_text == "trace") {
      r.expect("prefix");
      std::vector<load::epoch> prefix = r.pairs<load::epoch>("epochs", "epoch");
      r.expect("cycle");
      std::vector<load::epoch> cycle = r.pairs<load::epoch>("epochs", "epoch");
      try {
        scn.load = load::trace{std::move(prefix), std::move(cycle)};
      } catch (const error& e) {
        r.fail(e.what());
      }
    } else {
      try {
        scn.load = api::load_spec::parse(std::string{load_text});
      } catch (const error& e) {
        r.fail(e.what());
      }
    }
    scn.policy = r.expect_text("policy");
    r.expect("steps");
    scn.steps.time_step_min = r.real("time_step");
    scn.steps.charge_unit_amin = r.real("charge_unit");
    r.expect("sim");
    scn.sim.horizon_min = r.real("horizon");
    scn.sim.record_trace = r.size("record_trace") != 0;
    scn.sim.sample_min = r.real("sample");
    sw.cells.push_back(std::move(scn));
  }
  return sw;
}

void write_file(const shard_aggregate& agg, const std::string& path) {
  std::ofstream out{path};
  require(out.good(), "dist::codec: cannot open " + path + " for writing");
  out << encode_str(agg);
  require(out.good(), "dist::codec: writing " + path + " failed");
}

shard_aggregate read_file(const std::string& path) {
  std::ifstream in{path};
  require(in.good(), "dist::codec: cannot open " + path);
  return decode_str(wire::read_all(in));
}

}  // namespace bsched::dist
