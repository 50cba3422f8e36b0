// perfbench — end-to-end benchmark of bsched.
//
//   perfbench --workload <paper-opt|fleet-narrow|sweep-wide> --seed N
//             --seconds S --trace <0|1> [--trace-out DIR]
//
// Untraced (--trace 0): set-up timed several times, then alternating
// passes of the workload's main phase and its 1-thread baseline for S
// seconds; prints the end-to-end metrics. Traced (--trace 1): untraced
// main passes for S/2 seconds, then one traced main pass and one traced
// baseline pass, a replay phase, the per-layer reconciliation lines and
// the per-layer metrics (plus a chrome trace under --trace-out). Every
// pass is output-checked. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is 0 only when every check passed.
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/policies.hpp"
#include "probes.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace api = bsched::api;
using steady = std::chrono::steady_clock;

struct options {
  std::string workload;
  std::uint64_t seed = 2009;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

struct metric {
  std::string name;
  double value;
  const char* unit;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<paper-opt|fleet-narrow|sweep-wide> --seed N --seconds S "
               "--trace <0|1> [--trace-out DIR]\n",
               why.c_str());
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--trace-out") {
        o.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

double seconds_since(steady::time_point t0) {
  return std::chrono::duration<double>(steady::now() - t0).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Totals over every pass of a run.
struct tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(const pass_outcome& p) {
    attempted += p.items;
    failed += p.failed;
  }
};

std::vector<double> walls(const std::vector<pass_outcome>& passes) {
  std::vector<double> out;
  for (const pass_outcome& p : passes) out.push_back(p.wall_s);
  return out;
}

double total(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

double mean_wall(const std::vector<pass_outcome>& passes) {
  return total(walls(passes)) / static_cast<double>(passes.size());
}

/// Items per second over all of `passes`: their items over their time.
double rate(const std::vector<pass_outcome>& passes) {
  double items = 0;
  for (const pass_outcome& p : passes) items += static_cast<double>(p.items);
  return items / total(walls(passes));
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out;
}

/// Pins the calling thread to `cpus[k % cpus.size()]` while in scope and
/// then restores its affinity, so threads started later inherit every
/// CPU again. Does nothing when the affinity cannot be read or set.
class cpu_pin {
 public:
  cpu_pin(const std::vector<int>& cpus, std::size_t k) {
    if (cpus.empty() || sched_getaffinity(0, sizeof saved_, &saved_) != 0) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[k % cpus.size()], &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~cpu_pin() {
    if (pinned_) (void)sched_setaffinity(0, sizeof saved_, &saved_);
  }
  cpu_pin(const cpu_pin&) = delete;
  cpu_pin& operator=(const cpu_pin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Set-ups timed before each main pass; setup_s is the median of all of
/// them, so it samples the same stretch of the run as the passes do.
constexpr int setups_per_pass = 10;

void timed_setups(workload& wl, std::uint64_t seed, std::vector<double>& out) {
  for (int i = 0; i < setups_per_pass; ++i) {
    const steady::time_point t0 = steady::now();
    wl.setup(seed);
    out.push_back(seconds_since(t0));
  }
}

void print_result(const tally& t, const std::vector<metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              t.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// --- untraced run: end-to-end metrics ----------------------------------------

std::vector<metric> untraced_run(workload& wl, const options& o, tally& t) {
  std::vector<double> setups;
  timed_setups(wl, o.seed, setups);
  const api::engine& engine = wl.engine();

  // One warm-up pass of each phase, checked but not timed: the baseline
  // records the reference output (keeping every sample for the fleet's
  // check), and both fault in the memory and threads later passes reuse.
  const steady::time_point start = steady::now();
  t.add(wl.baseline_pass(engine, false));
  t.add(wl.main_pass(engine, false, nullptr));
  // Later passes repeat the same work; what they add to the resident set
  // is allocator arena churn of fresh pool threads, which grows with the
  // pass count rather than with the program's footprint.
  const double rss_mb = peak_rss_mb();

  // Main and baseline passes alternate, the baseline only while it has
  // used less time than the main phase, so both share the run evenly.
  // On a shared host one vCPU can run a third slower than another for
  // seconds at a time, so baseline passes take the CPUs in turn instead
  // of staying wherever the scheduler first put the thread.
  const std::vector<int> cpus = allowed_cpus();
  std::vector<pass_outcome> mains;
  std::vector<pass_outcome> bases;
  while (seconds_since(start) < o.seconds || mains.size() < 3 ||
         bases.size() < 3) {
    timed_setups(wl, o.seed, setups);
    mains.push_back(wl.main_pass(engine, false, nullptr));
    t.add(mains.back());
    if (total(walls(bases)) < total(walls(mains)) || bases.size() < 3) {
      const cpu_pin pin{cpus, bases.size()};
      bases.push_back(wl.baseline_pass(engine, false));
      t.add(bases.back());
    }
  }
  std::fprintf(stderr, "perfbench %s: %zu main + %zu baseline passes\n",
               o.workload.c_str(), mains.size(), bases.size());
  for (const auto* phase : {&mains, &bases}) {
    std::fprintf(stderr, "perfbench %s: %s pass walls (s):",
                 o.workload.c_str(), phase == &mains ? "main" : "baseline");
    for (const pass_outcome& p : *phase) {
      std::fprintf(stderr, " %.4f", p.wall_s);
    }
    std::fprintf(stderr, "\n");
  }

  // Means over the run's passes, not medians. On a shared host a pass
  // runs either fast or about 1.5x slower, and the share of slow passes
  // drifts from run to run. A median jumps from one mode to the other as
  // that share crosses one half; a mean follows it smoothly.
  const double main_rate = rate(mains);
  const double base_rate = rate(bases);
  return {
      {"wall_s", mean_wall(mains), "s"},
      {"items_per_s", main_rate, "items/s"},
      {"items_per_s_1t", base_rate, "items/s"},
      {"speedup", ratio(main_rate, base_rate), "ratio"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", rss_mb, "MiB"},
      {"ok_ratio",
       1.0 - ratio(static_cast<double>(t.failed),
                   static_cast<double>(t.attempted)),
       "ratio"},
  };
}

// --- traced run: per-layer metrics -------------------------------------------

struct traced_pass {
  pass_outcome outcome;
  std::vector<bsched::obs::span_record> spans;
  std::vector<policy_run> runs;
  log_histogram choose;
  std::map<std::string, double> counters;  ///< Registry deltas.
  ledger book;
};

/// Runs `body` (one pass) with the tracer on and the probing engine.
template <class Pass>
traced_pass trace_pass(Pass&& body) {
  traced_pass out;
  policy_probe probe;
  const api::engine engine{
      api::engine_options{probe.wrap(bsched::opt::model_registry())}};
  const std::map<std::string, double> before =
      flatten(bsched::obs::registry::global().scrape());
  {
    span_collector collector;
    out.outcome = body(engine);
    out.spans = collector.finish();
    if (collector.dropped() != 0) {
      std::fprintf(stderr, "perfbench: %llu spans lost to ring overflow\n",
                   static_cast<unsigned long long>(collector.dropped()));
    }
  }
  for (const auto& [name, value] :
       flatten(bsched::obs::registry::global().scrape())) {
    const auto it = before.find(name);
    out.counters[name] = value - (it != before.end() ? it->second : 0);
  }
  out.runs = probe.runs();
  out.choose = probe.choose_ns();
  out.book = build_ledger(out.spans, out.runs, out.outcome.wall_s);
  return out;
}

double counter(const traced_pass& p, const std::string& name) {
  const auto it = p.counters.find(name);
  return it != p.counters.end() ? it->second : 0;
}

/// The reconciliation line: per-layer self time tiles the pass's thread
/// time (wall_s x threads that recorded spans); the rest is unattributed.
void print_ledger(const std::string& workload, const char* phase,
                  const traced_pass& p, std::optional<double> overhead) {
  const ledger& b = p.book;
  std::printf("reconcile %s %s: wall_s=%.6f threads=%zu capacity_s=%.6f",
              workload.c_str(), phase, p.outcome.wall_s, b.threads,
              b.capacity_s);
  for (const auto& [layer, s] : b.self_s) {
    std::printf(" %s=%.6f", layer.c_str(), s);
  }
  std::printf(" unattributed_s=%.6f trace.coverage=%.4f",
              b.capacity_s - b.attributed_s, ratio(b.attributed_s, b.capacity_s));
  if (overhead) std::printf(" obs.trace_overhead=%.4f", *overhead);
  std::printf("\n");
}

std::vector<metric> traced_run(workload& wl, const options& o, tally& t) {
  wl.setup(o.seed);
  const api::engine& plain = wl.engine();

  // Untraced passes first: the reference output and the untraced wall
  // time the overhead is measured against.
  const steady::time_point start = steady::now();
  t.add(wl.baseline_pass(plain, false));
  std::vector<pass_outcome> mains;
  while (seconds_since(start) < o.seconds / 2 || mains.size() < 2) {
    mains.push_back(wl.main_pass(plain, false, nullptr));
    t.add(mains.back());
  }
  const double untraced_wall = mean_wall(mains);

  fleet_report fleet;
  const traced_pass main = trace_pass([&](const api::engine& e) {
    return wl.main_pass(e, true, &fleet);
  });
  t.add(main.outcome);
  const traced_pass base = trace_pass([&](const api::engine& e) {
    return wl.baseline_pass(e, true);
  });
  t.add(base.outcome);

  const double calls = counter(main, "kibam.advance_calls_total") +
                       counter(main, "kibam.soa.advance_calls_total");
  const double steps = counter(main, "kibam.advance_steps_total") +
                       counter(main, "kibam.soa.advance_steps_total");
  const replay_result rp = run_replays(wl.replay(), plain, ratio(steps, calls));

  const double overhead = main.outcome.wall_s / untraced_wall - 1;
  print_ledger(o.workload, "main", main, overhead);
  print_ledger(o.workload, "baseline", base, std::nullopt);
  const double chunks = ratio(static_cast<double>(fleet.worker_items),
                              static_cast<double>(fleet.chunk_items));
  if (fleet.chunk_items != 0) {
    // Replayed per-call costs x the fleet pass's call counts: how the
    // svc.worker / svc.coordinator self time above decomposes.
    const double leases = static_cast<double>(fleet.leases);
    const double items = static_cast<double>(fleet.worker_items);
    std::printf(
        "replay %s main: obs.scrape_s=%.6f (%.0f heartbeats) "
        "dist.codec_s=%.6f (%.0f leases) kibam.bank_build_s=%.6f (%.0f "
        "chunk batches) load.materialize_s=%.6f (%.0f items)\n",
        o.workload.c_str(), 1e-6 * rp.scrape_us * chunks, chunks,
        1e-6 * (rp.encode_us + rp.decode_us) * leases, leases,
        1e-6 * rp.bank_build_us * chunks, chunks,
        1e-6 * rp.materialize_us * items, items);
  }

  if (!o.trace_out.empty()) {
    const std::string path =
        o.trace_out + "/perfbench-" + o.workload + "-trace.json";
    std::ofstream out{path};
    std::vector<bsched::obs::span_record> spans = main.spans;
    spans.insert(spans.end(), base.spans.begin(), base.spans.end());
    bsched::obs::write_chrome_trace(spans, out);
    std::fprintf(stderr, "perfbench: wrote %zu spans to %s\n", spans.size(),
                 path.c_str());
  }

  std::uint64_t decisions = 0;
  std::uint64_t rollouts = 0;
  for (const policy_run& r : main.runs) {
    decisions += r.decisions;
    rollouts += r.rollouts;
  }
  const double nodes = counter(main, "opt.search.nodes_total");
  const double memo_hits = counter(main, "opt.search.memo_hits_total");
  const ledger& mb = main.book;
  const ledger& bb = base.book;
  return {
      {"opt.nodes", nodes, "count"},
      {"opt.memo_hit_ratio", ratio(memo_hits, nodes + memo_hits), "ratio"},
      {"opt.pruned_by_bound", counter(main, "opt.search.pruned_by_bound_total"),
       "count"},
      {"opt.ns_per_node", ratio(1e9 * mb.exact_bind_s, nodes), "ns"},
      {"opt.longest_cell_share",
       ratio(mb.longest_exact_bind_s, main.outcome.wall_s), "ratio"},
      {"sched.choose_us.p50", 1e-3 * main.choose.quantile(0.50), "us"},
      {"sched.choose_us.p99", 1e-3 * main.choose.quantile(0.99), "us"},
      {"sched.decisions", static_cast<double>(decisions), "count"},
      {"sched.rollouts_per_decision",
       ratio(static_cast<double>(rollouts), static_cast<double>(decisions)),
       "ratio"},
      {"sched.bind_s", mb.bind_s, "s"},
      // The api.* metrics describe the 1-thread baseline pass: the path
      // items_per_s_1t measures.
      {"api.job_self_us.p50", 1e-3 * median(bb.job_self_ns), "us"},
      {"api.batch_lanes.mean",
       ratio(counter(base, "engine.batch_lanes.sum"),
             counter(base, "engine.batch_lanes.count")),
       "lanes"},
      {"api.cache_hit_ratio",
       ratio(counter(base, "engine.cache_hits_total"),
             counter(base, "engine.items_total")),
       "ratio"},
      {"api.consume_us.p50", 1e-3 * median(bb.consume_ns), "us"},
      {"kibam.advance_calls", calls, "count"},
      {"kibam.advance_steps", steps, "count"},
      {"kibam.advance_us", rp.advance_us, "us"},
      {"kibam.bank_build_us", rp.bank_build_us, "us"},
      {"load.materialize_us", rp.materialize_us, "us"},
      {"svc.leases", static_cast<double>(fleet.leases), "count"},
      {"svc.steals", static_cast<double>(fleet.steals), "count"},
      {"svc.chunks", chunks, "count"},
      {"svc.useful_item_ratio",
       ratio(static_cast<double>(fleet.folded_items),
             static_cast<double>(fleet.worker_items)),
       "ratio"},
      {"dist.encode_us", rp.encode_us, "us"},
      {"dist.decode_us", rp.decode_us, "us"},
      {"dist.agg_bytes", rp.agg_bytes, "bytes"},
      {"net.frame_rtt_us", rp.frame_rtt_us, "us"},
      {"net.result_rtt_us", rp.result_rtt_us, "us"},
      {"obs.scrape_us", rp.scrape_us, "us"},
      {"obs.snapshot_bytes", rp.snapshot_bytes, "bytes"},
      {"obs.trace_overhead", overhead, "ratio"},
      {"trace.coverage", ratio(mb.attributed_s, mb.capacity_s), "ratio"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const options o = parse(argc, argv);
  const std::unique_ptr<workload> wl = make_workload(o.workload);
  if (!wl) usage("unknown workload " + o.workload);
  tally t;
  std::vector<metric> metrics;
  try {
    metrics = o.trace ? traced_run(*wl, o, t) : untraced_run(*wl, o, t);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  print_result(t, metrics);
  return t.failed == 0 ? 0 : 1;
}
