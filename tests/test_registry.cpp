// Policy registry: string-spec round trips for every built-in policy,
// parameter handling, and error reporting.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "kibam/bank.hpp"
#include "load/jobs.hpp"
#include "opt/policies.hpp"
#include "sched/registry.hpp"
#include "util/error.hpp"
#include "util/spec.hpp"

namespace bsched::sched {
namespace {

/// True when `r` lists `name` (a bare name, no parameters).
bool lists(const registry& r, const std::string& name) {
  return std::ranges::binary_search(r.names(), name);
}

TEST(SpecParse, NameOnly) {
  const spec s = parse_spec("best_of_n");
  EXPECT_EQ(s.name, "best_of_n");
  EXPECT_TRUE(s.params.empty());
}

TEST(SpecParse, Parameters) {
  const spec s = parse_spec("random:seed=42,extra=x");
  EXPECT_EQ(s.name, "random");
  EXPECT_EQ(s.get_u64("seed", 0), 42u);
  EXPECT_EQ(s.get_string("extra", ""), "x");
  EXPECT_EQ(s.get_u64("missing", 7), 7u);
  EXPECT_EQ(s.str(), "random:extra=x,seed=42");
}

TEST(SpecParse, Errors) {
  EXPECT_THROW((void)parse_spec(""), error);
  EXPECT_THROW((void)parse_spec(":seed=1"), error);
  EXPECT_THROW((void)parse_spec("random:seed"), error);
  EXPECT_THROW((void)parse_spec("random:seed=1,seed=2"), error);
  EXPECT_THROW((void)parse_spec("random:seed=zzz").get_u64("seed", 0),
               error);
}

TEST(Registry, EveryBuiltInConstructsAndNames) {
  // Registry key -> display name of the constructed policy.
  const struct {
    const char* spec;
    const char* display;
  } cases[] = {
      {"sequential", "sequential"},
      {"round_robin", "round robin"},
      {"best_of_n", "best-of-n"},
      {"worst_of_n", "worst-of-n"},
      {"random:seed=42", "random"},
      {"fixed:decisions=0-1-0-1", "fixed schedule"},
  };
  for (const auto& c : cases) {
    const auto pol = registry::built_in().make(c.spec);
    ASSERT_NE(pol, nullptr) << c.spec;
    EXPECT_EQ(pol->name(), c.display) << c.spec;
  }
  // Every registered name is covered by the table above.
  EXPECT_EQ(registry::built_in().names().size(), std::size(cases));
}

TEST(Registry, RandomSeedIsHonoured) {
  const std::vector<battery_view> views{{0, 5.0, 0.9, false},
                                        {1, 5.0, 0.9, false},
                                        {2, 5.0, 0.9, false}};
  const decision_context ctx{0, 0.0, 0.25, false, std::nullopt, views};
  const auto a = registry::built_in().make("random:seed=7");
  const auto b = registry::built_in().make("random:seed=7");
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a->choose(ctx), b->choose(ctx)) << "draw " << i;
  }
}

TEST(Registry, FixedSpecRoundTrips) {
  const std::vector<std::size_t> decisions{0, 1, 1, 0, 2};
  EXPECT_EQ(fixed_spec(decisions), "fixed:decisions=0-1-1-0-2");
  const auto pol = registry::built_in().make(fixed_spec(decisions));
  const std::vector<battery_view> views{{0, 5.0, 0.9, false},
                                        {1, 5.0, 0.9, false},
                                        {2, 5.0, 0.9, false}};
  const decision_context ctx{0, 0.0, 0.25, false, std::nullopt, views};
  for (const std::size_t expected : decisions) {
    EXPECT_EQ(pol->choose(ctx), expected);
  }
}

TEST(Registry, RejectsUnknownNamesAndParameters) {
  const registry reg = registry::built_in();
  EXPECT_THROW((void)reg.make("no_such_policy"), error);
  EXPECT_THROW((void)reg.make("best_of_n:seed=1"), error);
  EXPECT_THROW((void)reg.make("random:sede=42"), error);
  EXPECT_THROW((void)reg.make("fixed"), error);
  EXPECT_THROW((void)reg.make("fixed:decisions=0;1"), error);
}

TEST(Registry, UnknownParameterNamesTheAcceptedSet) {
  // A typo'd search knob must say what it saw *and* what it accepts, so
  // "opt:max_nodez=1" points straight at "max_nodes".
  const auto message_of = [](const registry& r, const std::string& text) {
    try {
      (void)r.make(text);
      ADD_FAILURE() << text << " should have thrown";
      return std::string{};
    } catch (const error& e) {
      return std::string{e.what()};
    }
  };
  const registry model = opt::model_registry();
  const std::string opt_msg = message_of(model, "opt:max_nodez=1");
  EXPECT_NE(opt_msg.find("max_nodez"), std::string::npos) << opt_msg;
  EXPECT_NE(opt_msg.find("max_nodes"), std::string::npos) << opt_msg;
  EXPECT_NE(opt_msg.find("prune"), std::string::npos) << opt_msg;
  // The accepted set is exactly the two search knobs.
  EXPECT_NE(opt_msg.find("(accepted: max_nodes, prune)"), std::string::npos)
      << opt_msg;

  const std::string random_msg =
      message_of(registry::built_in(), "random:sede=42");
  EXPECT_NE(random_msg.find("sede"), std::string::npos) << random_msg;
  EXPECT_NE(random_msg.find("accepted: seed"), std::string::npos)
      << random_msg;

  // Parameter-less policies say so instead of listing an empty set.
  const std::string bare_msg =
      message_of(registry::built_in(), "sequential:x=1");
  EXPECT_NE(bare_msg.find("accepts no parameters"), std::string::npos)
      << bare_msg;

  // Malformed values still name the key and value.
  const std::string value_msg = message_of(model, "opt:max_nodes=soon");
  EXPECT_NE(value_msg.find("max_nodes=soon"), std::string::npos) << value_msg;
}

TEST(Registry, RemovedSearchKnobsFailNamingTheKey) {
  // The exact search has no thread-count, warm-start or memo-cap knob. A
  // spec setting "threads", "warm_start" or "max_memo_entries" fails
  // loudly, naming the key, instead of being silently ignored.
  const registry model = opt::model_registry();
  const std::pair<const char*, const char*> cases[] = {
      {"opt:threads=4", "threads"},
      {"opt:warm_start=8", "warm_start"},
      {"opt:max_memo_entries=2000", "max_memo_entries"},
      {"worst:threads=4", "threads"},
      {"worst:warm_start=8", "warm_start"},
      {"worst:max_memo_entries=2000", "max_memo_entries"}};
  for (const auto& [text, key] : cases) {
    try {
      (void)model.make(text);
      ADD_FAILURE() << text << " should have thrown";
    } catch (const error& e) {
      const std::string what{e.what()};
      EXPECT_NE(what.find(std::string{"unknown parameter '"} + key + "'"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("(accepted: max_nodes, prune)"), std::string::npos)
          << what;
    }
  }
}

TEST(Registry, ModelRegistryAddsTheModelAwarePolicies) {
  // opt::model_registry layers "opt" / "worst" / "lookahead:horizon=N"
  // over the blind built-ins; all three construct unbound (they plan
  // when the simulator invokes the binding hook).
  const registry r = opt::model_registry();
  for (const char* name : {"opt", "worst", "lookahead"}) {
    EXPECT_TRUE(lists(r, name)) << name;
  }
  EXPECT_EQ(r.make("opt")->name(), "opt");
  EXPECT_EQ(r.make("worst")->name(), "worst");
  EXPECT_EQ(r.make("lookahead:horizon=2")->name(), "lookahead");
  EXPECT_THROW((void)r.make("lookahead:h=2"), error);
  EXPECT_THROW((void)r.make("opt:no_such_knob=1"), error);
  // The blind built-in registry stays blind.
  EXPECT_FALSE(lists(registry::built_in(), "opt"));
}

TEST(Registry, UnboundExactPolicyRejectsChoosing) {
  // An exact policy that was never bound has no plan and no greedy
  // context worth trusting... it falls back to greedy like an exhausted
  // fixed schedule, so direct simulator use without binding stays safe.
  const auto pol = opt::model_registry().make("opt");
  const std::vector<battery_view> views{{0, 5.0, 0.3, false},
                                        {1, 5.0, 0.8, false}};
  const decision_context ctx{0, 0.0, 0.5, false, std::nullopt, views,
                             nullptr};
  EXPECT_EQ(pol->choose(ctx), 1u);
  EXPECT_EQ(pol->stats(), search_stats{});
}

TEST(Registry, ExactPolicyChoiceErrorsKeepTheirText) {
  // choose() builds these messages only when its per-decision checks
  // fail; the text names the policy either way.
  const auto message = [](auto use) -> std::string {
    try {
      use();
    } catch (const error& e) {
      return e.what();
    }
    return "";
  };
  const std::vector<battery_view> dead{{0, 0.0, 0.0, true},
                                       {1, 0.0, 0.0, true}};
  const decision_context none{0, 0.0, 0.5, false, std::nullopt, dead,
                              nullptr};
  const auto unbound = opt::model_registry().make("opt");
  EXPECT_EQ(message([&] { (void)unbound->choose(none); }),
            "policy 'opt': all batteries empty");

  // A bound plan whose next pick is empty in the context it is asked in.
  const kibam::bank bank{kibam::discretization{kibam::battery_b1()}, 2};
  const load::trace t = load::paper_trace(load::test_load::ils_alt);
  const auto bound = opt::model_registry().make("worst");
  bound->bind_model(model_info{&bank, &t});
  EXPECT_EQ(message([&] { (void)bound->choose(none); }),
            "policy 'worst': plan picks an unusable battery (was the "
            "policy bound to this run's model?)");
}

TEST(Registry, CopiesAreIndependentlyExtensible) {
  registry mine = registry::built_in();
  mine.add("always_last", [](const spec& s) {
    s.require_only({});
    class last final : public policy {
      std::size_t choose(const decision_context& ctx) override {
        for (std::size_t i = ctx.batteries.size(); i-- > 0;) {
          if (!ctx.batteries[i].empty) return i;
        }
        throw error("always_last: all batteries empty");
      }
      std::string name() const override { return "always last"; }
    };
    return std::make_unique<last>();
  });
  EXPECT_TRUE(lists(mine, "always_last"));
  EXPECT_FALSE(lists(registry::built_in(), "always_last"));
  EXPECT_EQ(mine.make("always_last")->name(), "always last");
}

}  // namespace
}  // namespace bsched::sched
