// Seeded mutational test of the text decoders: the dist codec's shard and
// sweep sections, telemetry snapshots, protocol message headers and spec
// strings (policy specs and the load specs built on them). Seed inputs
// come from each format's encoder; util::rng mutates them by truncation,
// splicing, token duplication, numeric extremes and control bytes. Two
// properties must hold for every mutant:
//
//   * decoding either succeeds or throws bsched::error — any other
//     exception fails the test, and a crash or sanitizer report fails the
//     run (ci.sh asan-ubsan runs this suite too);
//   * whatever decodes re-encodes to a fixed point: encoding the decoded
//     value and decoding that again gives the same bytes.
//
// The iteration budget is fixed (no wall-clock cut-off), so a failure
// replays exactly from its seed and iteration.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "api/engine.hpp"
#include "api/scenario.hpp"
#include "dist/codec.hpp"
#include "dist/shard.hpp"
#include "kibam/parameters.hpp"
#include "load/trace.hpp"
#include "net/message.hpp"
#include "obs/telemetry.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/spec.hpp"

namespace bsched {
namespace {

/// Mutants tried per format: about 1 s for the whole suite in Debug.
constexpr std::size_t k_iterations = 6000;

/// A text format under test: encoder-made seeds and its decode-then-encode
/// round trip (which throws bsched::error when the input does not decode).
struct format {
  const char* name;
  std::vector<std::string> seeds;
  std::function<std::string(const std::string&)> round_trip;
};

api::scenario cell(api::load_spec load, std::string policy) {
  return api::scenario{.label = {},
                       .batteries = api::bank(2, kibam::battery_b1()),
                       .load = std::move(load),
                       .policy = std::move(policy),
                       .model = api::fidelity::discrete,
                       .steps = {},
                       .sim = {}};
}

api::sweep seed_sweep() {
  api::sweep sw;
  sw.cells.push_back(cell(api::load_spec::parse("random:count=6,p=0.4,seed=1"),
                          "round_robin"));
  sw.cells.push_back(cell(api::load_spec::parse("ILs alt"), "best_of_n"));
  sw.cells.push_back(
      cell(api::load_spec{load::trace{{{1.5, 0.1}, {2.25, 0.0}},
                                      {{10.0, 0.25}}}},
           "lookahead:horizon=1"));
  sw.cells.back().label = "a label with spaces and = signs";
  sw.cells.back().model = api::fidelity::continuous;
  sw.replications = 2;
  sw.seed = 2009;
  return sw;
}

std::vector<format> formats() {
  const api::sweep sw = seed_sweep();
  const api::engine engine;
  // A run over the discrete cells, so the seed carries real digests.
  api::sweep discrete = sw;
  discrete.cells.pop_back();
  const dist::shard_aggregate agg =
      dist::run_shard(engine, dist::plan_shard(discrete, 0, 1), 1);

  obs::snapshot snap;
  snap.counters = {{"engine.jobs_total", 42}, {"svc.leases_total", 7}};
  snap.gauges = {{"svc.uptime_s", 1.25}, {"svc.workers", 3}};
  snap.histograms = {{"engine.job_us", {1, 10, 100}, {4, 9, 2, 0}, 321.5}};

  net::message hb = net::make("heartbeat");
  hb.fields = {{"session", "2"}, {"lease", "7"}, {"epoch", "3"},
               {"done", "120"}};
  hb.body = obs::encode_telemetry_str(snap);
  net::message hello = net::make("hello");
  hello.fields = {{"proto", "1"}, {"name", "w\xc3\xa9rker-1"}};

  return {
      {"shard",
       {dist::encode_str(agg)},
       [](const std::string& x) {
         return dist::encode_str(dist::decode_str(x));
       }},
      {"sweep",
       {dist::encode_sweep_str(sw)},
       [](const std::string& x) {
         return dist::encode_sweep_str(dist::decode_sweep_str(x));
       }},
      {"telemetry",
       {obs::encode_telemetry_str(snap)},
       [](const std::string& x) {
         return obs::encode_telemetry_str(obs::decode_telemetry_str(x));
       }},
      {"message",
       {net::encode(hb), net::encode(hello)},
       [](const std::string& x) { return net::encode(net::decode(x)); }},
      {"spec",
       {"opt:max_nodes=1000,prune=0", "random:seed=42",
        "fixed:decisions=0-1-0-1"},
       [](const std::string& x) { return parse_spec(x).str(); }},
      {"load spec",
       {"markov:count=40,idle=1,p=0.7,seed=9",
        "random:count=12,idle=1,p=0.4,seed=1",
        "ILs alt"},
       [](const std::string& x) {
         return api::load_spec::parse(x).describe();
       }},
  };
}

constexpr std::string_view k_extremes[] = {
    "18446744073709551616", "18446744073709551615", "-0", "nan", "-nan",
    "1e309", "-1", "inf", "0", "4294967296", "1e-320", ""};

constexpr char k_control[] = {'\0', '\r', '\t', '\x7f', '\n', '\x1b',
                              '\xff', ' ', '=', ':'};

/// [begin, end) of a random maximal run of bytes not in `seps`.
std::pair<std::size_t, std::size_t> random_token(const std::string& s,
                                                 rng& r,
                                                 std::string_view seps) {
  std::size_t begin = r.below(s.size());
  while (begin > 0 && seps.find(s[begin - 1]) == std::string_view::npos) {
    --begin;
  }
  std::size_t end = begin;
  while (end < s.size() && seps.find(s[end]) == std::string_view::npos) {
    ++end;
  }
  return {begin, end};
}

/// One random mutation of `s`; `donor` feeds splices.
void mutate(std::string& s, const std::string& donor, rng& r) {
  if (s.empty()) {
    s = donor.substr(0, r.below(donor.size() + 1));
    return;
  }
  switch (r.below(6)) {
    case 0:  // truncation
      s.resize(r.below(s.size()));
      break;
    case 1: {  // splice a slice of the donor over a slice of s
      const std::size_t from = r.below(donor.size() + 1);
      const std::size_t len = r.below(donor.size() - from + 1);
      const std::size_t at = r.below(s.size() + 1);
      s.replace(at, r.below(s.size() - at + 1), donor, from, len);
      break;
    }
    case 2: {  // duplicate a token (or, below, a whole line)
      const auto [b, e] = random_token(s, r, " ,\n");
      s.insert(e, s.substr(b, e - b));
      s.insert(e, 1, ' ');
      break;
    }
    case 3: {
      const auto [b, e] = random_token(s, r, "\n");
      s.insert(std::min(e + 1, s.size()), s.substr(b, e - b) + "\n");
      break;
    }
    case 4: {  // a numeric extreme in place of a value
      const auto [b, e] = random_token(s, r, " ,=:\n");
      s.replace(b, e - b,
                k_extremes[r.below(std::size(k_extremes))]);
      break;
    }
    default: {  // a control or separator byte, replacing or inserted
      const char c = k_control[r.below(std::size(k_control))];
      const std::size_t at = r.below(s.size());
      if (r.below(2) == 0) {
        s[at] = c;
      } else {
        s.insert(at, 1, c);
      }
      break;
    }
  }
}

TEST(WireFuzz, DecodersThrowOnlyBschedErrorsAndReencodeToAFixedPoint) {
  const std::vector<format> all = formats();
  for (std::size_t fi = 0; fi < all.size(); ++fi) {
    const format& f = all[fi];
    rng r{rng::derive(2009, fi)};
    std::size_t decoded = 0;
    std::size_t rejected = 0;
    for (const std::string& seed : f.seeds) {
      // The seeds themselves are fixed points.
      ASSERT_EQ(f.round_trip(seed), seed) << f.name;
    }
    for (std::size_t i = 0; i < k_iterations; ++i) {
      std::string x = f.seeds[r.below(f.seeds.size())];
      const std::string& donor = f.seeds[r.below(f.seeds.size())];
      for (std::uint64_t m = 0, n = 1 + r.below(3); m < n; ++m) {
        mutate(x, donor, r);
      }
      std::string y;
      try {
        y = f.round_trip(x);
      } catch (const error&) {
        ++rejected;
        continue;
      }
      ++decoded;
      std::string z;
      try {
        z = f.round_trip(y);
      } catch (const error& e) {
        ADD_FAILURE() << f.name << " iteration " << i
                      << ": the re-encoding does not decode: " << e.what();
        continue;
      }
      EXPECT_EQ(z, y) << f.name << " iteration " << i;
    }
    // Both outcomes are exercised: the mutants neither all break nor all
    // preserve the format.
    EXPECT_GT(decoded, 0u) << f.name;
    EXPECT_GT(rejected, 0u) << f.name;
  }
}

}  // namespace
}  // namespace bsched
