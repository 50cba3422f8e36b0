// Differential oracle for the exact search: on small seeded random
// instances, a brute-force enumerator walks every decision sequence
// through sched::simulate_discrete — a test-local policy replays a
// scripted prefix and extends it with the lowest alive battery — so it
// shares no stepping, memo or bound code with opt/search.cpp. The search
// must reproduce the enumerated extremes exactly, pick the
// lexicographically first optimal sequence, and replay through
// "fixed:decisions=" to the lifetime it claims; every other policy must
// land between the two extremes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kibam/bank.hpp"
#include "kibam/parameters.hpp"
#include "load/random.hpp"
#include "load/trace.hpp"
#include "opt/policies.hpp"
#include "opt/search.hpp"
#include "sched/policy.hpp"
#include "sched/registry.hpp"
#include "sched/simulator.hpp"
#include "util/rng.hpp"

namespace bsched {
namespace {

/// Plays `script` for the first decisions, then the lowest alive battery,
/// recording the alive batteries offered at every decision.
class enumerating_policy final : public sched::policy {
 public:
  explicit enumerating_policy(std::vector<std::size_t> script)
      : script_(std::move(script)) {}

  std::size_t choose(const sched::decision_context& ctx) override {
    std::vector<std::size_t> alive;
    for (const sched::battery_view& b : ctx.batteries) {
      if (!b.empty) alive.push_back(b.index);
    }
    const std::size_t k = offered.size();
    offered.push_back(alive);
    taken.push_back(k < script_.size() ? script_[k] : alive.front());
    return taken.back();
  }

  std::string name() const override { return "enumerate"; }

  std::vector<std::vector<std::size_t>> offered;
  std::vector<std::size_t> taken;

 private:
  std::vector<std::size_t> script_;
};

struct brute_force {
  std::int64_t max_steps = -1;
  std::int64_t min_steps = -1;
  std::vector<std::size_t> first_max;  ///< Lexicographically first argmax.
  std::vector<std::size_t> first_min;  ///< Lexicographically first argmin.
  std::size_t sequences = 0;
};

std::int64_t steps_of(double lifetime_min, const kibam::bank& bank) {
  return std::llround(lifetime_min / bank.steps().time_step_min);
}

/// Every decision sequence, in lexicographic order of battery indices: the
/// next sequence keeps the longest prefix whose last decision still has a
/// higher alive alternative, and takes that alternative.
brute_force enumerate(const kibam::bank& bank, const load::trace& t) {
  brute_force out;
  std::vector<std::size_t> script;
  while (true) {
    enumerating_policy pol{script};
    const std::int64_t steps =
        steps_of(sched::simulate_discrete(bank, t, pol).lifetime_min, bank);
    ++out.sequences;
    if (steps > out.max_steps) {
      out.max_steps = steps;
      out.first_max = pol.taken;
    }
    if (out.min_steps < 0 || steps < out.min_steps) {
      out.min_steps = steps;
      out.first_min = pol.taken;
    }
    std::size_t k = pol.taken.size();
    while (k > 0 && pol.taken[k - 1] == pol.offered[k - 1].back()) --k;
    if (k == 0) return out;
    const std::vector<std::size_t>& alive = pol.offered[k - 1];
    std::size_t next = 0;
    while (alive[next] != pol.taken[k - 1]) ++next;
    script.assign(pol.taken.begin(), pol.taken.begin() + (k - 1));
    script.push_back(alive[next + 1]);
  }
}

/// 1-3 batteries of small capacities and two KiBaM types, so runs end
/// after a few jobs and banks mix both capacities and parameters.
kibam::bank random_bank(rng& r) {
  std::vector<kibam::battery_parameters> params;
  const std::size_t count = 1 + r.below(3);
  for (std::size_t b = 0; b < count; ++b) {
    kibam::battery_parameters p =
        kibam::itsy_battery(1.0 + 0.25 * static_cast<double>(r.below(9)));
    if (r.below(2) == 1) {
      p.c = 0.3;
      p.k_prime = 0.05;
    }
    params.push_back(p);
  }
  return kibam::bank{params};
}

TEST(OptOracle, SearchMatchesBruteForceOnSeededRandomInstances) {
  std::size_t sequences = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    rng r{seed};
    const kibam::bank bank = random_bank(r);
    // Independent random jobs, or bursty Markov jobs on every third seed.
    const std::size_t jobs = 2 + r.below(3);
    const auto idle = static_cast<double>(r.below(2));
    const load::trace t = (seed % 3 == 0
                               ? load::markov_jobs(jobs, 0.7, idle, seed)
                               : load::random_jobs(jobs, 0.5, idle, seed))
                              .to_trace();
    const brute_force bf = enumerate(bank, t);
    sequences += bf.sequences;
    const std::string where = "seed " + std::to_string(seed) + ", " +
                              std::to_string(bank.size()) + " batteries";

    for (const bool prune : {false, true}) {
      opt::search_options opts;
      opts.prune = prune;
      const std::string tag = where + (prune ? ", pruned" : ", unpruned");

      const opt::optimal_result best = opt::optimal_schedule(bank, t, opts);
      EXPECT_EQ(steps_of(best.lifetime_min, bank), bf.max_steps) << tag;
      EXPECT_EQ(best.decisions, bf.first_max) << tag;
      const auto replay = sched::registry::built_in().make(
          sched::fixed_spec(best.decisions));
      EXPECT_EQ(sched::simulate_discrete(bank, t, *replay).lifetime_min,
                best.lifetime_min)
          << tag;

      const opt::optimal_result worst = opt::worst_schedule(bank, t, opts);
      EXPECT_EQ(steps_of(worst.lifetime_min, bank), bf.min_steps) << tag;
      EXPECT_EQ(worst.decisions, bf.first_min) << tag;

      // Every realizable schedule lies between the two extremes: the
      // blind policies and the model-aware lookahead alike.
      std::vector<std::unique_ptr<sched::policy>> others;
      for (const char* blind :
           {"sequential", "round_robin", "best_of_n", "random:seed=7"}) {
        others.push_back(sched::registry::built_in().make(blind));
      }
      others.push_back(opt::lookahead_policy(2));
      for (const auto& pol : others) {
        const std::int64_t steps = steps_of(
            sched::simulate_discrete(bank, t, *pol).lifetime_min, bank);
        EXPECT_LE(steps_of(worst.lifetime_min, bank), steps)
            << tag << ", " << pol->name();
        EXPECT_LE(steps, steps_of(best.lifetime_min, bank))
            << tag << ", " << pol->name();
      }
    }
  }
  // The instances must branch, or the oracle proves nothing (9 653
  // sequences over these seeds).
  EXPECT_GT(sequences, 5000u);
}

}  // namespace
}  // namespace bsched
