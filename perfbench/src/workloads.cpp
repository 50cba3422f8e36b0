#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>
#include <variant>

#include "dist/shard.hpp"
#include "golden.hpp"
#include "load/jobs.hpp"
#include "obs/obs.hpp"
#include "probes.hpp"
#include "svc/coordinator.hpp"
#include "svc/worker.hpp"
#include "tools/sweep_common.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace api = bsched::api;
namespace svc = bsched::svc;
namespace dist = bsched::dist;

namespace {

using steady = std::chrono::steady_clock;
using cells_t = std::vector<api::cell_summary>;

double seconds_since(steady::time_point t0) {
  return std::chrono::duration<double>(steady::now() - t0).count();
}

/// Main-phase width: the machine's four cores.
constexpr std::size_t main_threads = 4;

/// `load` (a random/markov spec) with its declared seed replaced.
api::load_spec with_seed(const api::load_spec& load, std::uint64_t seed) {
  api::random_load_spec r = std::get<api::random_load_spec>(load.source());
  r.seed = seed;
  return api::load_spec{r};
}

/// One line per failed check, on stderr; the pass is then failed whole.
void report_mismatch(const char* workload, const std::string& what) {
  std::fprintf(stderr, "perfbench %s: output check failed: %s\n", workload,
               what.c_str());
}

std::string cell_name(const api::cell_summary& c) {
  return "cell " + std::to_string(c.cell) + " (" + c.label + ")";
}

/// Byte-identical summaries: every field, doubles compared exactly.
std::string identical(const cells_t& got, const cells_t& ref) {
  if (got.size() != ref.size()) return "cell count differs";
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == ref[i])) {
      return cell_name(ref[i]) + " differs from the 1-thread reference";
    }
  }
  return {};
}

/// Raw per-cell samples of a reference pass, sorted: what a quantile
/// sketch approximates once a cell outgrows the digest budget.
struct cell_samples {
  std::vector<double> lifetime;
  std::vector<double> residual;
};

/// Distance in rank between `v` and quantile `q` of `sorted` (0 when `v`
/// is a value the exact q-quantile can take).
double rank_error(const std::vector<double>& sorted, double q, double v) {
  const auto n = static_cast<double>(sorted.size());
  const double below =
      static_cast<double>(std::lower_bound(sorted.begin(), sorted.end(), v) -
                          sorted.begin()) / n;
  const double upto =
      static_cast<double>(std::upper_bound(sorted.begin(), sorted.end(), v) -
                          sorted.begin()) / n;
  return q < below ? below - q : q > upto ? q - upto : 0;
}

/// The dist equivalence contract of svc/coordinator.hpp and
/// tests/test_svc.cpp: n, failures, min and max exact, moments within
/// 1e-9 relative, quantiles exact up to the digest budget. Past the
/// budget the merged sketch is a different t-digest fold of the same
/// samples, so its quantiles must instead sit within `max_rank_error`
/// in rank of the reference's exact sample quantiles: two widths of a
/// k1-scale centroid at the median (2 x 2pi/delta x 1/2, delta = 64).
/// Single-process sketches of this grid are off by up to 0.03 in rank,
/// merged ones by up to 0.05.
constexpr double max_rank_error = 0.1;

std::string equivalent(const cells_t& got, const cells_t& ref,
                       const std::vector<cell_samples>& samples) {
  if (got.size() != ref.size()) return "cell count differs";
  const auto near = [](double a, double b) {
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
  };
  for (std::size_t i = 0; i < got.size(); ++i) {
    const api::cell_summary& g = got[i];
    const api::cell_summary& r = ref[i];
    const bool exact =
        g.label == r.label && g.load == r.load && g.policy == r.policy &&
        g.fidelity == r.fidelity && g.n == r.n && g.failures == r.failures &&
        g.min_min == r.min_min && g.max_min == r.max_min &&
        near(g.mean_min, r.mean_min) && near(g.stddev_min, r.stddev_min) &&
        near(g.ci95_min, r.ci95_min);
    if (!exact) return cell_name(r) + " breaks the dist equivalence contract";
    const std::array<std::array<double, 3>, 4> quantiles{{
        {0.1, g.p10_min, r.p10_min},
        {0.5, g.p50_min, r.p50_min},
        {0.9, g.p90_min, r.p90_min},
        {0.5, g.p50_residual_amin, r.p50_residual_amin},
    }};
    for (std::size_t k = 0; k < quantiles.size(); ++k) {
      const auto [q, merged, single] = quantiles[k];
      if (r.n <= api::summary_digest_centroids) {
        if (merged != single) {
          return cell_name(r) + ": quantile differs below the digest budget";
        }
        continue;
      }
      const std::vector<double>& sorted =
          k == 3 ? samples[i].residual : samples[i].lifetime;
      const double err = rank_error(sorted, q, merged);
      if (err > max_rank_error) {
        return cell_name(r) + ": merged quantile " + std::to_string(q) +
               " is " + std::to_string(err) + " off in rank";
      }
    }
  }
  return {};
}

std::size_t failures(const cells_t& cells) {
  std::size_t n = 0;
  for (const api::cell_summary& c : cells) n += c.failures;
  return n;
}

/// Items of one fleet-sized lease: the coordinator's default lease size
/// for three workers (coordinator_options::leases_per_worker leases each).
std::size_t lease_size(std::size_t total) {
  const std::size_t per = 3 * svc::coordinator_options{}.leases_per_worker;
  return std::max<std::size_t>(1, (total + per - 1) / per);
}

/// Shared shape of the three workloads: a sweep, an engine, and the
/// reference output of the first baseline pass.
class sweep_workload : public workload {
 public:
  const api::engine& engine() const override { return engine_; }

  /// The main phase of paper-opt and sweep-wide: the sweep on the
  /// machine's four cores, identical to the 1-thread reference.
  pass_outcome main_pass(const api::engine& engine, bool traced,
                         fleet_report*) override {
    const cells_t& ref = reference();
    cells_t cells;
    pass_outcome out = sweep_pass(engine, main_threads, traced, cells);
    return finish(out, cells, identical(cells, ref));
  }

  pass_outcome baseline_pass(const api::engine& engine,
                             bool traced) override {
    cells_t cells;
    pass_outcome out = sweep_pass(engine, 1, traced, cells);
    if (!reference_) reference_ = cells;
    return finish(out, cells, identical(cells, *reference_));
  }

  replay_inputs replay() const override {
    replay_inputs in;
    in.bank = sweep_.cells.front().batteries;
    in.steps = sweep_.cells.front().steps;
    in.sweep = &sweep_;
    in.lease_items = lease_size(sweep_.cells.size() * sweep_.replications);
    // One effective load per distinct load cell, as replication 0 of the
    // sweep evaluates it.
    std::vector<std::string> seen;
    for (std::size_t c = 0; c < sweep_.cells.size(); ++c) {
      const api::scenario eff = api::replicate(sweep_, c, 0);
      const std::string text = eff.load.describe();
      if (std::find(seen.begin(), seen.end(), text) != seen.end()) continue;
      seen.push_back(text);
      in.loads.push_back(eff.load);
    }
    return in;
  }

 protected:
  explicit sweep_workload(const char* name) : name_(name) {}

  /// Runs the sweep through engine::run_sweep into api::summarize.
  pass_outcome sweep_pass(const api::engine& engine, std::size_t threads,
                          bool traced, cells_t& cells) {
    const steady::time_point t0 = steady::now();
    {
      BSCHED_TRACE_SPAN(pass_span, "bench.pass");
      api::summarize summary{sweep_};
      // The first pass also keeps every sample: the reference the fleet's
      // sketches are checked against.
      const bool keep = !reference_;
      if (keep) samples_.assign(sweep_.cells.size(), {});
      api::callback_sink keeper{[&](const api::sweep_result& r) {
        if (r.result.ok()) {
          samples_[r.cell].lifetime.push_back(r.result.sim.lifetime_min);
          samples_[r.cell].residual.push_back(r.result.sim.residual_amin);
        }
        summary.consume(r);
      }};
      api::result_sink& sink =
          keep ? static_cast<api::result_sink&>(keeper) : summary;
      {
        BSCHED_TRACE_SPAN(sweep_span, "bench.run_sweep");
        if (traced) {
          timed_sink timed{sink};
          (void)engine.run_sweep(sweep_, timed, threads);
        } else {
          (void)engine.run_sweep(sweep_, sink, threads);
        }
      }
      cells = summary.cells();
      if (keep) {
        for (cell_samples& c : samples_) {
          std::sort(c.lifetime.begin(), c.lifetime.end());
          std::sort(c.residual.begin(), c.residual.end());
        }
      }
    }
    pass_outcome out;
    out.wall_s = seconds_since(t0);
    out.items = sweep_.cells.size() * sweep_.replications;
    return out;
  }

  /// Fills in the failure count: the pass's errored items, or all of
  /// them when `mismatch` (and the workload's own check) says the output
  /// is wrong.
  pass_outcome finish(pass_outcome out, const cells_t& cells,
                      std::string mismatch) const {
    if (mismatch.empty()) mismatch = check(cells);
    if (!mismatch.empty()) {
      report_mismatch(name_, mismatch);
      out.failed = out.items;
    } else {
      out.failed = failures(cells);
    }
    return out;
  }

  const cells_t& reference() const {
    if (!reference_) {
      throw std::logic_error(std::string{name_} +
                             ": the baseline pass must run first");
    }
    return *reference_;
  }

  /// Workload-specific output check beyond agreement with the reference.
  [[nodiscard]] virtual std::string check(const cells_t&) const { return {}; }

  const char* name_;
  api::sweep sweep_;
  api::engine engine_;
  std::optional<cells_t> reference_;
  std::vector<cell_samples> samples_;  ///< Of the reference pass.
};

// --- paper-opt ---------------------------------------------------------------

/// Table 5 plus the lookahead ablation: ten paper loads x six policies on
/// 2 x B1, run verbatim. About 99% of the time is exact search.
class paper_opt final : public sweep_workload {
 public:
  paper_opt() : sweep_workload("paper-opt") {}

  void setup(std::uint64_t seed) override {
    std::vector<api::load_spec> loads;
    for (const bsched::load::test_load l : bsched::load::all_test_loads()) {
      loads.emplace_back(l);
    }
    api::sweep sw;
    sw.reseed = false;  // the paper's deterministic loads, run as declared
    sw.seed = seed;     // unused while reseed is off; kept for the record
    sw.cells = api::cross({api::bank(2, bsched::kibam::battery_b1())}, loads,
                          {"sequential", "round_robin", "best_of_n",
                           "lookahead:horizon=2", "lookahead:horizon=8",
                           "opt"},
                          {api::fidelity::discrete});
    sweep_ = std::move(sw);
    engine_ = api::engine{};
  }

 private:
  std::string check(const cells_t& cells) const override {
    std::uint64_t nodes = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].policy == "opt") nodes += cells[i].search.nodes;
      if (i < golden::paper_opt_lifetimes.size() &&
          cells[i].mean_min != golden::paper_opt_lifetimes[i]) {
        char buf[96];
        std::snprintf(buf, sizeof buf, " lifetime %a min, recorded %a",
                      cells[i].mean_min, golden::paper_opt_lifetimes[i]);
        return cell_name(cells[i]) + buf;
      }
    }
    if (cells.size() != golden::paper_opt_lifetimes.size()) {
      return "expected " +
             std::to_string(golden::paper_opt_lifetimes.size()) +
             " cells, got " + std::to_string(cells.size());
    }
    if (nodes != golden::paper_opt_nodes) {
      return "opt node total " + std::to_string(nodes) + ", recorded " +
             std::to_string(golden::paper_opt_nodes);
    }
    return {};
  }
};

// --- sweep-wide --------------------------------------------------------------

/// An 8-battery alternating B1/B2 bank under two random/markov loads x
/// {best_of_n, lookahead:horizon=2}: wide banks, long lives, most time in
/// per-decision rollouts and wide recovery sweeps.
class sweep_wide final : public sweep_workload {
 public:
  sweep_wide() : sweep_workload("sweep-wide") {}

  void setup(std::uint64_t seed) override {
    std::vector<bsched::kibam::battery_parameters> bank;
    for (std::size_t b = 0; b < 8; ++b) {
      bank.push_back(b % 2 == 0 ? bsched::kibam::battery_b1()
                                : bsched::kibam::battery_b2());
    }
    const std::vector<api::load_spec> loads{
        with_seed(api::load_spec::parse("random:count=40,p=0.5"),
                  bsched::rng::derive(seed, 1)),
        with_seed(api::load_spec::parse("markov:count=40,p=0.7"),
                  bsched::rng::derive(seed, 2))};
    api::sweep sw;
    sw.seed = seed;
    sw.replications = replications;
    sw.cells = api::cross({bank}, loads, {"best_of_n", "lookahead:horizon=2"},
                          {api::fidelity::discrete});
    sweep_ = std::move(sw);
    engine_ = api::engine{};
  }

  static constexpr std::size_t replications = 250;
};

// --- fleet-narrow ------------------------------------------------------------

/// The tools/sweep_common.hpp demo grid (5 random/markov loads x
/// {round_robin, best_of_n} on 2 x B1) served by an in-process
/// coordinator to three loopback workers. Cheap items, so per-item and
/// per-chunk fixed costs of svc/dist/net/obs and engine batching dominate.
class fleet_narrow final : public sweep_workload {
 public:
  fleet_narrow() : sweep_workload("fleet-narrow") {}

  void setup(std::uint64_t seed) override {
    api::sweep sw = bsched::tools::demo_sweep(replications);
    sw.seed = seed;
    for (api::scenario& cell : sw.cells) {
      const auto& declared =
          std::get<api::random_load_spec>(cell.load.source());
      cell.load = with_seed(cell.load, bsched::rng::derive(seed, declared.seed));
    }
    sweep_ = std::move(sw);
    engine_ = api::engine{};
    // The coordinator binds its listening socket (and encodes the sweep
    // for the wire) at construction: part of a fleet's set-up.
    const svc::coordinator bind{sweep_, options()};
    (void)bind.port();
  }

  pass_outcome main_pass(const api::engine& engine, bool,
                         fleet_report* report) override {
    const cells_t& ref = reference();
    const std::size_t total = sweep_.cells.size() * sweep_.replications;
    const svc::coordinator_options opts = options();
    std::array<svc::worker_report, workers> reports{};
    std::array<std::exception_ptr, workers> errors{};
    std::optional<dist::shard_aggregate> merged;
    std::string failure;

    const steady::time_point t0 = steady::now();
    {
      BSCHED_TRACE_SPAN(pass_span, "bench.pass");
      const std::uint64_t parent = pass_span.id();
      std::optional<svc::coordinator> coord;
      coord.emplace(sweep_, opts);
      const std::uint16_t port = coord->port();
      std::vector<std::thread> fleet;
      fleet.reserve(workers);
      for (std::size_t w = 0; w < workers; ++w) {
        fleet.emplace_back([&, w] {
          BSCHED_TRACE_SPAN(worker_span, "bench.run_worker", parent);
          try {
            svc::worker_options wo;
            wo.port = port;
            wo.name = std::to_string(w);
            wo.name.insert(0, 1, 'w');
            wo.n_threads = 1;
            wo.io_timeout_ms = 30000;
            reports[w] = svc::run_worker(engine, wo);
          } catch (...) {
            errors[w] = std::current_exception();
          }
        });
      }
      try {
        BSCHED_TRACE_SPAN(coord_span, "bench.coordinator.run");
        merged = coord->run();
      } catch (const std::exception& e) {
        failure = std::string{"coordinator: "} + e.what();
      }
      if (report != nullptr && merged) {
        report->leases = coord->counters().leases_granted;
        report->steals = coord->counters().steals;
      }
      // Closing the coordinator's sockets releases workers still waiting
      // on a failed campaign.
      if (!merged) coord.reset();
      for (std::thread& t : fleet) t.join();
    }
    pass_outcome out;
    out.wall_s = seconds_since(t0);
    out.items = total;

    for (std::size_t w = 0; w < workers && failure.empty(); ++w) {
      if (errors[w] == nullptr) continue;
      try {
        std::rethrow_exception(errors[w]);
      } catch (const std::exception& e) {
        failure = "worker " + std::to_string(w) + ": " + e.what();
      }
    }
    if (report != nullptr) {
      report->worker_items = 0;
      for (const svc::worker_report& r : reports) {
        report->worker_items += r.items;
      }
      report->folded_items = merged ? merged->last_item - merged->first_item
                                    : 0;
      report->chunk_items = opts.chunk_items;
    }
    if (!failure.empty()) return finish(out, {}, failure);
    if (merged->first_item != 0 || merged->last_item != total) {
      return finish(out, {}, "merged aggregate does not cover the sweep");
    }
    const cells_t cells = dist::summaries(*merged);
    return finish(out, cells, equivalent(cells, ref, samples_));
  }

  static constexpr std::size_t replications = 2500;
  static constexpr std::size_t workers = 3;

 private:
  /// Default coordinator options (chunk 4, 8 leases per worker), sized
  /// for the three workers, with a deadline so a wedged fleet fails the
  /// pass instead of hanging the benchmark.
  static svc::coordinator_options options() {
    svc::coordinator_options opts;
    opts.workers_expected = workers;
    opts.deadline_s = 120;
    return opts;
  }
};

}  // namespace

std::unique_ptr<workload> make_workload(const std::string& name) {
  if (name == "paper-opt") return std::make_unique<paper_opt>();
  if (name == "fleet-narrow") return std::make_unique<fleet_narrow>();
  if (name == "sweep-wide") return std::make_unique<sweep_wide>();
  return nullptr;
}

}  // namespace perfbench
