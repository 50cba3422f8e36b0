// Engine microbenchmarks (google-benchmark): the hot paths underneath the
// paper experiments — analytic segment advance, dKiBaM stepping, bank
// construction, an obs counter hook, draw-rate lookup and load
// materialization, sweep cell keys, the per-cell statistics fold, policy
// simulation, a fleet worker's chunk, the optimal search and PTA
// successor generation.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "api/scenario.hpp"
#include "api/sweep.hpp"
#include "dist/shard.hpp"
#include "kibam/bank.hpp"
#include "kibam/discrete.hpp"
#include "kibam/kibam.hpp"
#include "load/discretize.hpp"
#include "load/jobs.hpp"
#include "obs/obs.hpp"
#include "opt/search.hpp"
#include "pta/semantics.hpp"
#include "sched/policy.hpp"
#include "sched/simulator.hpp"
#include "support/bank_reference.hpp"
#include "takibam/network.hpp"
#include "../tools/sweep_common.hpp"

namespace {

using namespace bsched;

void bm_analytic_advance(benchmark::State& state) {
  const kibam::battery_parameters p = kibam::battery_b1();
  kibam::state s = kibam::full(p);
  for (auto _ : state) {
    s = kibam::advance(p, s, 0.25, 0.01);
    if (s.gamma < 1.0) s = kibam::full(p);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(bm_analytic_advance);

void bm_analytic_lifetime(benchmark::State& state) {
  const kibam::battery_parameters p = kibam::battery_b1();
  const load::trace t = load::paper_trace(load::test_load::ils_alt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kibam::lifetime(p, t));
  }
}
BENCHMARK(bm_analytic_lifetime);

void bm_discrete_step(benchmark::State& state) {
  const kibam::discretization d{kibam::battery_b1()};
  kibam::discrete_state s = kibam::full_discrete(d);
  const load::draw_rate rate{1, 4};
  for (auto _ : state) {
    if (kibam::step(d, s, rate) == kibam::step_event::died) {
      s = kibam::full_discrete(d);
    }
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(bm_discrete_step);

void bm_discrete_lifetime(benchmark::State& state) {
  const kibam::discretization d{kibam::battery_b1()};
  const load::trace t = load::paper_trace(load::test_load::ils_alt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kibam::discrete_lifetime(d, t));
  }
}
BENCHMARK(bm_discrete_lifetime);

void bm_bank_step_all(benchmark::State& state) {
  // Per-tick reference: one full discharge of a mixed two-battery bank
  // (active battery drawn flat-out, the other recovering) one step at a
  // time. The baseline the event-horizon kernels are measured against.
  const kibam::bank bk{{kibam::battery_b1(), kibam::battery_b2()}};
  const load::draw_rate rate{1, 4};
  for (auto _ : state) {
    std::vector<kibam::discrete_state> s = bk.full_states();
    while (kibam::step_all(bk, s, 0, rate) != kibam::step_event::died) {
    }
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(bm_bank_step_all);

/// `count` mid-life states of a mixed B1 + B2 bank: battery 0 partly
/// drained (n >= N/2, alive) with a running recovery timer, battery 1
/// resting with a height difference to recover.
std::vector<std::vector<kibam::discrete_state>> drawn_states(
    const kibam::bank& bk, std::size_t count) {
  std::mt19937_64 rng{2009};
  std::vector<std::vector<kibam::discrete_state>> out;
  out.reserve(count);
  while (out.size() < count) {
    std::vector<kibam::discrete_state> s = bk.full_states();
    for (std::size_t b = 0; b < s.size(); ++b) {
      const kibam::discretization& d = bk.disc(b);
      const std::int64_t n0 = d.total_units();
      s[b].n = std::uniform_int_distribution<std::int64_t>{n0 / 2, n0}(rng);
      s[b].m = std::uniform_int_distribution<std::int64_t>{2, 90}(rng);
      s[b].recovery_elapsed = std::uniform_int_distribution<std::int64_t>{
          0, d.recovery_steps(s[b].m) - 1}(rng);
    }
    if (bk.disc(0).available_permille(s[0].n, s[0].m) > 0) {
      out.push_back(std::move(s));
    }
  }
  return out;
}

void bm_bank_advance_all(benchmark::State& state) {
  // The same full discharge through the event-horizon kernel: gaps
  // between draw/recovery events are jumped in O(1), so the cost scales
  // with events, not ticks. Each iteration starts from a different
  // pre-drawn mid-life state (8 per slot of the transition memo), and a
  // window the active battery dies in is never memoised, so this times
  // the kernel behind the memo's misses (the recovering battery's rest
  // is a memo miss too, unless a state repeats its key).
  const kibam::bank bk{{kibam::battery_b1(), kibam::battery_b2()}};
  const auto starts = drawn_states(bk, 1 << 14);
  const load::draw_rate rate{1, 4};
  std::size_t i = 0;
  for (auto _ : state) {
    std::vector<kibam::discrete_state> s = starts[i];
    while (bk.advance_all(s, 0, rate, 1 << 20).event !=
           kibam::step_event::died) {
    }
    benchmark::DoNotOptimize(s);
    i = (i + 1) % starts.size();
  }
}
BENCHMARK(bm_bank_advance_all);

void bm_bank_advance_all_repeat(benchmark::State& state) {
  // One discharge from one state every iteration, in the 100-step spans
  // of a rollout: after the first iteration every window the battery
  // survives is a memo hit, and only the fatal one runs the kernel. What
  // a rollout pays for a future another candidate's rollout already saw.
  const kibam::bank bk{{kibam::battery_b1(), kibam::battery_b2()}};
  const auto start = drawn_states(bk, 1).front();
  const load::draw_rate rate{1, 4};
  for (auto _ : state) {
    std::vector<kibam::discrete_state> s = start;
    while (bk.advance_all(s, 0, rate, 100).event != kibam::step_event::died) {
    }
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(bm_bank_advance_all_repeat);

void bm_bank_build(benchmark::State& state) {
  // Discretizing a 2 x B1 bank on the default grid: what every discrete
  // run pays once per (batteries, steps) shape, and what the engine's
  // bank cache saves each further run or sweep of that shape.
  const std::vector<kibam::battery_parameters> batteries =
      api::bank(2, kibam::battery_b1());
  for (auto _ : state) {
    const kibam::bank bk{batteries};
    benchmark::DoNotOptimize(bk.total_units());
  }
}
BENCHMARK(bm_bank_build);

void bm_counter_add(benchmark::State& state) {
  // One obs counter hook on a registered counter: the per-call tax every
  // instrumented kernel pays (a shard add, no allocation; nothing at all
  // with BSCHED_OBS=OFF).
  for (auto _ : state) {
    BSCHED_COUNTER_ADD("bench.micro.counter_total", 1);
  }
}
BENCHMARK(bm_counter_add);

void bm_rate_for(benchmark::State& state) {
  // The draw-rate lookup of one job current on the default grid: what
  // discretizing a load costs per job epoch.
  double amps = 0.25;
  for (auto _ : state) {
    benchmark::DoNotOptimize(amps);
    benchmark::DoNotOptimize(load::rate_for(amps));
  }
}
BENCHMARK(bm_rate_for);

void bm_load_materialize(benchmark::State& state) {
  // A seeded 40-job random load turned into its trace (generation plus
  // per-epoch validation): what every stochastic sweep item pays once.
  const api::load_spec spec{api::random_load_spec{.count = 40, .seed = 1}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(spec.materialize());
  }
}
BENCHMARK(bm_load_materialize);

void bm_simulate_best_of_two(benchmark::State& state) {
  const kibam::discretization d{kibam::battery_b1()};
  const load::trace t = load::paper_trace(load::test_load::ils_alt);
  const auto pol = sched::best_of_n();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::simulate_discrete(d, 2, t, *pol).lifetime_min);
  }
}
BENCHMARK(bm_simulate_best_of_two);

void bm_sweep_cell_reps(benchmark::State& state) {
  // One stochastic sweep cell (seeded random load) replicated 32 times —
  // the unit of work a sweep worker evaluates per grid cell. Replications
  // share the bank, grid and policy and differ only in the derived load
  // seed, so all 32 runs read the one bank in the engine's cache.
  api::sweep sw;
  sw.cells = {api::scenario{.label = {},
                            .batteries = api::bank(2, kibam::battery_b1()),
                            .load = api::random_load_spec{.count = 20,
                                                          .seed = 1},
                            .policy = "best_of_n",
                            .model = api::fidelity::discrete}};
  sw.replications = 32;
  const api::engine engine;
  for (auto _ : state) {
    api::summarize sink{sw};
    engine.run_sweep(sw, sink, 1);
    benchmark::DoNotOptimize(sink.cells());
  }
}
BENCHMARK(bm_sweep_cell_reps);

void bm_sweep_cheap_items(benchmark::State& state) {
  // The product path on cheap items: the 2 500-item demo grid
  // (tools/sweep_common.hpp, 250 replications) through run_sweep into
  // summarize, at 1 and 4 threads. Items cost a few microseconds, so any
  // per-item synchronisation shows as lost scaling: compare the real
  // times of /4 and /1. cpu_time counts every thread's work.
  const api::sweep sw = tools::demo_sweep(250);
  const api::engine engine;
  const auto n_threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    api::summarize sink{sw};
    engine.run_sweep(sw, sink, n_threads);
    benchmark::DoNotOptimize(sink.cells());
  }
}
BENCHMARK(bm_sweep_cheap_items)->Arg(1)->Arg(4)->UseRealTime()
    ->MeasureProcessCPUTime();

void bm_cell_key(benchmark::State& state) {
  // The sweep cache's value key of one scenario, which run_sweep builds
  // once per deterministic cell. (The scenario timed here is a replicated
  // stochastic item: the key run_sweep once built per such item, before
  // items that can never repeat stopped being keyed.)
  api::sweep sw;
  sw.cells = {api::scenario{.label = {},
                            .batteries = api::bank(2, kibam::battery_b1()),
                            .load = api::random_load_spec{.count = 20,
                                                          .seed = 1},
                            .policy = "best_of_n",
                            .model = api::fidelity::discrete}};
  const api::scenario item = api::replicate(sw, 0, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(api::cell_key(item));
  }
}
BENCHMARK(bm_cell_key);

void bm_run_shard_chunk(benchmark::State& state) {
  // One 4-item chunk of the fleet demo grid (tools/sweep_common.hpp, 2 500
  // replications) appended to a lease aggregate by dist::run_shard, as
  // svc::run_worker runs every chunk: the per-chunk engine cost a fleet
  // worker pays 6 250 times per pass over the grid. Chunks walk the item
  // stream, so every iteration runs items it has not run before.
  api::sweep sw = tools::demo_sweep(2500);
  const std::size_t total = sw.cells.size() * sw.replications;
  const dist::shard_aggregate blank = dist::empty_aggregate(sw);
  dist::shard sh;
  sh.sweep = std::move(sw);
  const api::engine engine;
  dist::shard_aggregate lease = blank;
  for (auto _ : state) {
    if (lease.last_item + 4 > total) lease = blank;
    sh.first = lease.last_item;
    sh.last = sh.first + 4;
    dist::run_shard(engine, sh, lease, 1);
  }
  benchmark::DoNotOptimize(lease.cells);
}
BENCHMARK(bm_run_shard_chunk);

void bm_cell_accumulator_add(benchmark::State& state) {
  // The per-item cost of the sweep statistics: a recorded stream of the
  // demo grid's (lifetime, residual) pairs (tools/sweep_common.hpp, 2 500
  // replications, 25 000 items in grid order) folded into one fresh
  // cell_accumulator per cell, as summarize and a fleet worker's lease
  // aggregate fold them. Recording runs the sweep once, outside the
  // timing; the items/s counter gives the per-item time.
  const api::sweep sw = tools::demo_sweep(2500);
  std::vector<std::pair<std::size_t, api::run_result>> stream;
  stream.reserve(sw.cells.size() * sw.replications);
  const api::engine engine;
  engine.run_sweep(
      sw,
      [&stream](const api::sweep_result& r) {
        api::run_result pair;
        pair.sim.lifetime_min = r.result.sim.lifetime_min;
        pair.sim.residual_amin = r.result.sim.residual_amin;
        stream.emplace_back(r.cell, std::move(pair));
      },
      1);
  for (auto _ : state) {
    std::vector<api::cell_accumulator> cells(sw.cells.size());
    for (const auto& [cell, result] : stream) cells[cell].add(result, false);
    benchmark::DoNotOptimize(cells);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(bm_cell_accumulator_add);

void bm_simulate_lookahead(benchmark::State& state) {
  // The online-rollout policy: every job start rolls each candidate
  // battery forward on a scratch bank copy, the decision-time hot path
  // of the model-aware policies.
  const api::scenario scn{.label = {},
                          .batteries = api::bank(2, kibam::battery_b1()),
                          .load = load::test_load::ils_alt,
                          .policy = "lookahead:horizon=2",
                          .model = api::fidelity::discrete};
  const api::engine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(scn).sim.lifetime_min);
  }
}
BENCHMARK(bm_simulate_lookahead);

void bm_engine_batch(benchmark::State& state) {
  // The scenario front door: a six-cell sweep (two loads x three
  // policies) through run_batch with a varying worker count.
  const std::vector<api::scenario> sweep = api::cross(
      {api::bank(2, kibam::battery_b1())},
      {api::load_spec{load::test_load::cl_alt},
       api::load_spec{load::test_load::ils_alt}},
      {"sequential", "round_robin", "best_of_n"},
      {api::fidelity::continuous});
  const api::engine engine;
  const auto n_threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_batch(sweep, n_threads));
  }
}
BENCHMARK(bm_engine_batch)->Arg(1)->Arg(4);

void bm_optimal_search(benchmark::State& state) {
  const kibam::discretization d{kibam::battery_b1()};
  const load::trace t = load::paper_trace(load::test_load::cl_alt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        opt::optimal_schedule(d, 2, t).lifetime_min);
  }
}
BENCHMARK(bm_optimal_search);

void bm_ta_successors(benchmark::State& state) {
  const kibam::discretization d{kibam::battery_b1()};
  const load::trace t = load::paper_trace(load::test_load::cl_500);
  const takibam::model m = takibam::build(d, t, 2);
  const pta::semantics sem{m.net};
  const pta::dstate init = sem.initial();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sem.successors(init));
  }
}
BENCHMARK(bm_ta_successors);

}  // namespace

BENCHMARK_MAIN();
