// The scenario/engine front door: load specs, engine::run equivalence with
// the direct simulate_* calls, search-derived policies, and run_batch
// determinism across thread counts.
#include <gtest/gtest.h>

#include <algorithm>

#include "api/engine.hpp"
#include "api/scenario.hpp"
#include "load/random.hpp"
#include "opt/search.hpp"
#include "sched/registry.hpp"
#include "util/error.hpp"

namespace bsched::api {
namespace {

const kibam::battery_parameters b1 = kibam::battery_b1();

TEST(LoadSpec, ParsesPaperNamesAndRandomSpecs) {
  EXPECT_EQ(load_spec::parse("ILs alt").materialize(),
            load::paper_trace(load::test_load::ils_alt));
  EXPECT_EQ(load_spec::parse("CL 250").describe(), "CL 250");

  const load_spec markov =
      load_spec::parse("markov:count=10,p=0.7,idle=1,seed=3");
  EXPECT_EQ(markov.materialize(),
            load::markov_jobs(10, 0.7, 1.0, 3).to_trace());
  EXPECT_EQ(markov.describe(), "markov:count=10,idle=1,p=0.7,seed=3");

  EXPECT_THROW((void)load_spec::parse("no such load"), error);
  EXPECT_THROW((void)load_spec::parse("markov:count=10,sede=3"), error);
}

TEST(LoadSpec, DescribeRoundTripsThroughParse) {
  // Every parseable source variant — paper name, iid random, markov —
  // re-parses from its own description to an equal load_spec.
  for (const load::test_load l : load::all_test_loads()) {
    const load_spec spec{l};
    EXPECT_EQ(load_spec::parse(spec.describe()), spec);
  }
  for (const char* text :
       {"random:count=40,p=0.5,idle=1,seed=7",
        "random:count=3,p=0.125,idle=0.25,seed=0",
        "markov:count=40,p=0.7,idle=1,seed=7",
        // Values without exact short decimals survive via shortest
        // round-trip formatting.
        "markov:count=9,p=0.30000000000000004,idle=2.1,seed=18446744073709551615"}) {
    const load_spec spec = load_spec::parse(text);
    EXPECT_EQ(load_spec::parse(spec.describe()), spec) << text;
    EXPECT_EQ(load_spec::parse(spec.describe()).describe(), spec.describe())
        << text;
  }
}

TEST(LoadSpec, ExplicitTracePassesThrough) {
  const load::trace t{{{1.0, 0.25}, {2.0, 0.0}}};
  const load_spec spec{t};
  EXPECT_EQ(spec.materialize(), t);
}

TEST(Engine, RunMatchesDirectSimulateOnTable5Loads) {
  const engine eng;
  const kibam::discretization disc{b1};
  for (const load::test_load l : load::all_test_loads()) {
    const load::trace trace = load::paper_trace(l);
    for (const char* policy :
         {"sequential", "round_robin", "best_of_n"}) {
      const scenario scn{.label = {},
                         .batteries = bank(2, b1),
                         .load = l,
                         .policy = policy,
                         .model = fidelity::discrete,
                         .steps = {},
                         .sim = {}};
      const run_result via_engine = eng.run(scn);
      const auto direct_pol = sched::registry::built_in().make(policy);
      const sched::sim_result direct =
          sched::simulate_discrete(disc, 2, trace, *direct_pol);
      EXPECT_EQ(via_engine.sim, direct)
          << policy << " on " << load::name(l);
    }
  }
}

TEST(Engine, ContinuousFidelityMatchesDirectSimulate) {
  const engine eng;
  const scenario scn{.label = {},
                     .batteries = {b1, kibam::battery_b2()},
                     .load = load::test_load::ils_500,
                     .policy = "best_of_n",
                     .model = fidelity::continuous,
                     .steps = {},
                     .sim = {}};
  const run_result via_engine = eng.run(scn);
  const auto pol = sched::registry::built_in().make("best_of_n");
  const sched::sim_result direct = sched::simulate_continuous(
      scn.batteries, load::paper_trace(load::test_load::ils_500), *pol);
  EXPECT_EQ(via_engine.sim, direct);
  EXPECT_EQ(via_engine.policy_name, "best-of-n");
}

TEST(Engine, OptPolicyReproducesExactSearch) {
  const engine eng;
  const load::trace trace = load::paper_trace(load::test_load::cl_alt);
  const kibam::discretization disc{b1};
  const opt::optimal_result best = opt::optimal_schedule(disc, 2, trace);
  const scenario scn{.label = {},
                     .batteries = bank(2, b1),
                     .load = load::test_load::cl_alt,
                     .policy = "opt",
                     .model = fidelity::discrete,
                     .steps = {},
                     .sim = {}};
  const run_result r = eng.run(scn);
  EXPECT_NEAR(r.sim.lifetime_min, best.lifetime_min, 1e-12);
  EXPECT_EQ(r.policy_name, "opt");
  // The search statistics surface unchanged through run_result.
  EXPECT_EQ(r.search, best.stats);
  EXPECT_GT(r.search.nodes, 0u);
  EXPECT_GT(r.search.memo_entries, 0u);

  scenario worst_scn = scn;
  worst_scn.policy = "worst";
  const run_result w = eng.run(worst_scn);
  EXPECT_EQ(w.policy_name, "worst");
  EXPECT_NEAR(w.sim.lifetime_min,
              opt::worst_schedule(kibam::bank{disc, 2}, trace).lifetime_min,
              1e-12);
  EXPECT_LE(w.sim.lifetime_min, r.sim.lifetime_min);
}

TEST(Engine, RegistryPoliciesReportZeroSearchStats) {
  const engine eng;
  const scenario scn{.label = {},
                     .batteries = bank(2, b1),
                     .load = load::test_load::cl_250,
                     .policy = "best_of_n",
                     .model = fidelity::discrete,
                     .steps = {},
                     .sim = {}};
  EXPECT_EQ(eng.run(scn).search, opt::search_stats{});
}

TEST(Engine, LookaheadPolicyRunsViaName) {
  const engine eng;
  const scenario scn{.label = {},
                     .batteries = bank(2, b1),
                     .load = load::test_load::cl_alt,
                     .policy = "lookahead:horizon=2",
                     .model = fidelity::discrete,
                     .steps = {},
                     .sim = {}};
  const run_result r = eng.run(scn);
  EXPECT_GT(r.sim.lifetime_min, 0.0);
  EXPECT_GT(r.search.rollouts, 0u);
  EXPECT_EQ(r.search.nodes, 0u);
}

TEST(Engine, SearchPoliciesAcceptHeterogeneousBanks) {
  // The gap the paper measures on identical banks exists for mixed
  // capacities too: on a 5.5 + 4.0 A*min bank under ILs alt the exact
  // schedule strictly beats greedy best-of-n.
  const engine eng;
  const scenario scn{.label = {},
                     .batteries = {kibam::itsy_battery(5.5),
                                   kibam::itsy_battery(4.0)},
                     .load = load::test_load::ils_alt,
                     .policy = "opt",
                     .model = fidelity::discrete,
                     .steps = {},
                     .sim = {}};
  const run_result best = eng.run(scn);
  EXPECT_EQ(best.policy_name, "opt");
  EXPECT_GT(best.search.nodes, 0u);

  scenario greedy_scn = scn;
  greedy_scn.policy = "best_of_n";
  const run_result greedy = eng.run(greedy_scn);
  EXPECT_GT(best.sim.lifetime_min, greedy.sim.lifetime_min + 0.1);

  scenario worst_scn = scn;
  worst_scn.policy = "worst";
  const run_result worst = eng.run(worst_scn);
  scenario la_scn = scn;
  la_scn.policy = "lookahead:horizon=2";
  const run_result la = eng.run(la_scn);
  EXPECT_GT(la.search.rollouts, 0u);
  for (const run_result* r : {&greedy, &la}) {
    EXPECT_GE(r->sim.lifetime_min, worst.sim.lifetime_min - 1e-9);
    EXPECT_LE(r->sim.lifetime_min, best.sim.lifetime_min + 1e-9);
  }
}

TEST(Engine, SearchPoliciesRejectContinuousFidelity) {
  // A discrete-grid decision list replayed continuously would silently
  // diverge at hand-overs, so the engine refuses the combination.
  const engine eng;
  const scenario scn{.label = {},
                     .batteries = bank(2, b1),
                     .load = load::test_load::cl_alt,
                     .policy = "worst",
                     .model = fidelity::continuous,
                     .steps = {},
                     .sim = {}};
  EXPECT_THROW((void)eng.run(scn), error);
}

// The acceptance sweep: 2 batteries x all ten test loads x three
// policies x both fidelities, expressed as data and run through the
// batch engine.
std::vector<scenario> acceptance_sweep() {
  std::vector<load_spec> loads;
  for (const load::test_load l : load::all_test_loads()) {
    loads.emplace_back(l);
  }
  return cross({bank(2, b1)}, loads,
               {"sequential", "round_robin", "best_of_n"},
               {fidelity::discrete, fidelity::continuous});
}

TEST(RunBatch, DeterministicAcrossThreadCounts) {
  const engine eng;
  const std::vector<scenario> sweep = acceptance_sweep();
  ASSERT_EQ(sweep.size(), 60u);
  const std::vector<run_result> one = eng.run_batch(sweep, 1);
  const std::vector<run_result> two = eng.run_batch(sweep, 2);
  const std::vector<run_result> eight = eng.run_batch(sweep, 8);
  ASSERT_EQ(one.size(), sweep.size());
  for (const run_result& r : one) {
    EXPECT_TRUE(r.ok()) << r.error;
    EXPECT_GT(r.sim.lifetime_min, 0.0);
  }
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST(RunBatch, SeededScenariosAreReproducible) {
  const engine eng;
  const scenario scn{.label = {},
                     .batteries = bank(2, b1),
                     .load = load_spec::parse("markov:count=30,p=0.7,seed=11"),
                     .policy = "random:seed=42",
                     .model = fidelity::discrete,
                     .steps = {},
                     .sim = {}};
  const std::vector<scenario> batch(4, scn);
  const std::vector<run_result> results = eng.run_batch(batch, 4);
  for (const run_result& r : results) {
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r, results.front());
  }
}

TEST(RunBatch, CapturesPerScenarioFailures) {
  const engine eng;
  scenario good{.label = {},
                .batteries = bank(2, b1),
                .load = load::test_load::cl_250,
                .policy = "best_of_n",
                .model = fidelity::discrete,
                .steps = {},
                .sim = {}};
  scenario bad = good;
  bad.policy = "no_such_policy";
  const std::vector<scenario> batch{good, bad, good};
  const std::vector<run_result> results = eng.run_batch(batch, 2);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_NE(results[1].error.find("no_such_policy"), std::string::npos);
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(results[0], results[2]);
}

TEST(Engine, PolicyNamesMergeRegistryAndEngineNames) {
  const std::vector<std::string> names = engine_options{}.policies.names();
  for (const char* expected :
       {"best_of_n", "fixed", "lookahead", "opt", "random", "round_robin",
        "sequential", "worst", "worst_of_n"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(Scenario, DescribeIsHumanReadable) {
  const scenario scn{.label = {},
                     .batteries = bank(2, b1),
                     .load = load::test_load::ils_alt,
                     .policy = "best_of_n",
                     .model = fidelity::discrete,
                     .steps = {},
                     .sim = {}};
  EXPECT_EQ(scn.describe(), "2xC=5.5 | ILs alt | best_of_n | discrete");
  scenario labelled = scn;
  labelled.label = "headline";
  EXPECT_EQ(labelled.describe(), "headline");
  scenario mixed = scn;
  mixed.batteries = {b1, kibam::battery_b2()};
  mixed.model = fidelity::continuous;
  EXPECT_EQ(mixed.describe(),
            "2x(C=5.5,C=11) | ILs alt | best_of_n | continuous");
}

TEST(Engine, SearchSpecParametersOverrideDefaults) {
  // The exact-search knobs ride on the policy spec now that "opt" is a
  // registry policy: per-scenario overrides need no engine rebuild.
  const engine eng;
  scenario scn{.label = {},
               .batteries = bank(2, b1),
               .load = load::test_load::ils_250,
               .policy = "opt:max_nodes=1",
               .model = fidelity::discrete,
               .steps = {},
               .sim = {}};
  EXPECT_THROW((void)eng.run(scn), error);  // node budget exhausted

  scn.policy = "opt:prune=0";
  const run_result unpruned = eng.run(scn);
  scn.policy = "opt";
  const run_result pruned = eng.run(scn);
  EXPECT_DOUBLE_EQ(unpruned.sim.lifetime_min, pruned.sim.lifetime_min);

  scn.policy = "opt:budget=1";  // unknown parameter -> spec error
  EXPECT_THROW((void)eng.run(scn), error);
}

TEST(Engine, RegistryEntriesWinOverEngineNames) {
  // A custom registration of "opt" must not be shadowed by the engine's
  // search-derived policy of the same name.
  engine_options opts;
  opts.policies.add("opt", [](const spec& s) {
    s.require_only({});
    return sched::sequential();
  });
  // The registry lists the overridden name exactly once.
  const std::vector<std::string> names = opts.policies.names();
  EXPECT_EQ(std::count(names.begin(), names.end(), "opt"), 1);
  const engine eng{std::move(opts)};
  const scenario scn{.label = {},
                     .batteries = bank(2, b1),
                     .load = load::test_load::cl_250,
                     .policy = "opt",
                     .model = fidelity::discrete,
                     .steps = {},
                     .sim = {}};
  const run_result r = eng.run(scn);
  EXPECT_EQ(r.policy_name, "sequential");
}

}  // namespace
}  // namespace bsched::api
