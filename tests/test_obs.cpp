// The observability layer (src/obs): exact concurrent counter folds,
// documented histogram bucket semantics, deterministic scrapes, span
// ring overflow, shards and rings outliving their threads, the
// "bsched-telemetry v1" wire format, the monotonic
// clock seam — and the fleet acceptance property: a 3-worker loopback
// sweep whose coordinator telemetry's per-worker item counters sum
// exactly to the sweep's (cell, replication) item count.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <latch>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "api/scenario.hpp"
#include "api/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "support/fleet.hpp"
#include "support/manual_clock.hpp"
#include "svc/coordinator.hpp"
#include "svc/worker.hpp"
#include "util/error.hpp"

namespace bsched::obs {
namespace {

// ---------------------------------------------------------------- metrics
//
// The registry and the tracer are process singletons shared with every
// other test in this binary, so each test names its metrics uniquely and
// checks scrape deltas, not absolute values.

/// What `after` adds to `before`, for the metrics whose names start with
/// `prefix`, in `after`'s order: counters and histogram buckets and sums
/// subtract, gauges keep `after`'s value. A metric absent from `before`
/// counts from zero.
snapshot delta(const snapshot& before, const snapshot& after,
               std::string_view prefix) {
  snapshot out;
  for (counter_sample c : after.counters) {
    if (!c.name.starts_with(prefix)) continue;
    for (const counter_sample& b : before.counters) {
      if (b.name == c.name) c.value -= b.value;
    }
    out.counters.push_back(std::move(c));
  }
  for (const gauge_sample& g : after.gauges) {
    if (g.name.starts_with(prefix)) out.gauges.push_back(g);
  }
  for (histogram_sample h : after.histograms) {
    if (!h.name.starts_with(prefix)) continue;
    for (const histogram_sample& b : before.histograms) {
      if (b.name != h.name) continue;
      for (std::size_t i = 0; i < h.buckets.size(); ++i) {
        h.buckets[i] -= b.buckets[i];
      }
      h.sum -= b.sum;
    }
    out.histograms.push_back(std::move(h));
  }
  return out;
}

TEST(ObsMetrics, ConcurrentIncrementsFoldExactly) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIncrements = 10000;
  registry& reg = registry::global();
  const std::size_t id = reg.counter("test.fold.increments_total");
  const snapshot before = reg.scrape();
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&reg, id] {
      for (std::size_t i = 0; i < kIncrements; ++i) reg.add(id);
    });
  }
  for (auto& th : pool) th.join();

  const snapshot snap = delta(before, reg.scrape(), "test.fold.");
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "test.fold.increments_total");
  // The acceptance property of the sharded design: N threads x M
  // increments fold to exactly N*M — no lost updates, ever.
  EXPECT_EQ(snap.counters[0].value, kThreads * kIncrements);
}

TEST(ObsMetrics, ConcurrentHistogramObservationsFoldExactly) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kObservations = 5000;
  registry& reg = registry::global();
  const std::size_t id = reg.histogram("test.fold_hist.values", {1.0, 2.0});
  const snapshot before = reg.scrape();
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&reg, id] {
      for (std::size_t i = 0; i < kObservations; ++i) {
        reg.observe(id, 1.5);
      }
    });
  }
  for (auto& th : pool) th.join();

  const snapshot snap = delta(before, reg.scrape(), "test.fold_hist.");
  ASSERT_EQ(snap.histograms.size(), 1u);
  const histogram_sample& h = snap.histograms[0];
  EXPECT_EQ(h.count(), kThreads * kObservations);
  ASSERT_EQ(h.buckets.size(), 3u);
  EXPECT_EQ(h.buckets[0], 0u);
  EXPECT_EQ(h.buckets[1], kThreads * kObservations);
  EXPECT_EQ(h.buckets[2], 0u);
  EXPECT_DOUBLE_EQ(h.sum, 1.5 * static_cast<double>(kThreads * kObservations));
}

TEST(ObsMetrics, ShortLivedThreadsKeepTheirCounts) {
  // Each thread binds a shard on its first add and parks it on exit; the
  // next thread adopts the parked shard. What an exited thread counted
  // stays in the fold, however many threads come and go.
  registry& reg = registry::global();
  const std::size_t id = reg.counter("test.churn.adds_total");
  const snapshot before = reg.scrape();
  std::uint64_t expected = 0;
  for (std::uint64_t t = 1; t <= 16; ++t) {
    std::thread([&reg, id, t] { reg.add(id, t); }).join();
    expected += t;
    const snapshot snap = delta(before, reg.scrape(), "test.churn.");
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters[0].value, expected) << "after thread " << t;
  }
}

TEST(ObsMetrics, HistogramBucketBoundariesAreClosedAbove) {
  registry& reg = registry::global();
  const std::size_t id = reg.histogram("test.bounds.hist", {1.0, 10.0});
  const snapshot before = reg.scrape();
  // (-inf, 1], (1, 10], (10, +inf) — a value equal to a bound lands in
  // that bound's bucket, just above goes to the next.
  reg.observe(id, 0.5);
  reg.observe(id, 1.0);
  reg.observe(id, 1.0000001);
  reg.observe(id, 10.0);
  reg.observe(id, 10.5);

  const snapshot snap = delta(before, reg.scrape(), "test.bounds.");
  ASSERT_EQ(snap.histograms.size(), 1u);
  const histogram_sample& h = snap.histograms[0];
  ASSERT_EQ(h.bounds, (std::vector<double>{1.0, 10.0}));
  ASSERT_EQ(h.buckets.size(), 3u);
  EXPECT_EQ(h.buckets[0], 2u);  // 0.5, 1.0
  EXPECT_EQ(h.buckets[1], 2u);  // 1.0000001, 10.0
  EXPECT_EQ(h.buckets[2], 1u);  // 10.5 -> +inf overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum, 0.5 + 1.0 + 1.0000001 + 10.0 + 10.5);
}

TEST(ObsMetrics, RegistrationIsIdempotentAndValidated) {
  registry& reg = registry::global();
  const std::size_t c = reg.counter("test.kind.counter_total");
  EXPECT_EQ(reg.counter("test.kind.counter_total"), c);  // idempotent
  const std::size_t h = reg.histogram("test.kind.hist", {1.0, 2.0});
  EXPECT_EQ(reg.histogram("test.kind.hist", {1.0, 2.0}), h);

  // Cross-kind name clashes, bad names and bad bounds are errors.
  EXPECT_THROW((void)reg.gauge("test.kind.counter_total"), error);
  EXPECT_THROW((void)reg.counter("test.kind.hist"), error);
  EXPECT_THROW((void)reg.counter(""), error);
  EXPECT_THROW((void)reg.counter("has space"), error);
  EXPECT_THROW((void)reg.histogram("test.kind.hist", {1.0, 3.0}), error);
  EXPECT_THROW((void)reg.histogram("test.kind.hist2", {}), error);
  EXPECT_THROW((void)reg.histogram("test.kind.hist3", {2.0, 1.0}), error);
}

TEST(ObsMetrics, WrongKindUseThrowsWithTheMetricName) {
  // The hooks' per-call checks build their messages only on failure;
  // the text itself is unchanged.
  registry& reg = registry::global();
  const std::size_t c = reg.counter("test.misuse.counter_total");
  const std::size_t g = reg.gauge("test.misuse.gauge");
  const auto message = [](auto use) -> std::string {
    try {
      use();
    } catch (const error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(message([&] { reg.set(c, 1.0); }),
            "obs: metric 'test.misuse.counter_total' used as the wrong kind");
  EXPECT_EQ(message([&] { reg.add(g); }),
            "obs: metric 'test.misuse.gauge' used as the wrong kind");
  EXPECT_EQ(message([&] { reg.observe(c, 1.0); }),
            "obs: metric 'test.misuse.counter_total' used as the wrong kind");
  EXPECT_EQ(message([&] { reg.add(std::numeric_limits<std::size_t>::max()); }),
            "obs: metric id out of range");
}

TEST(ObsMetrics, ScrapeIsDeterministic) {
  registry& reg = registry::global();
  reg.add(reg.counter("test.scrape.b.counter_total"), 3);
  reg.add(reg.counter("test.scrape.a.counter_total"), 1);
  reg.set(reg.gauge("test.scrape.z.gauge"), 2.5);
  reg.observe(reg.histogram("test.scrape.m.hist", {1.0}), 0.5);

  const snapshot first = reg.scrape();
  const snapshot second = reg.scrape();
  EXPECT_EQ(first, second);
  // First-registration order, not name order, in the snapshot...
  const snapshot mine = delta({}, first, "test.scrape.");
  ASSERT_EQ(mine.counters.size(), 2u);
  EXPECT_EQ(mine.counters[0].name, "test.scrape.b.counter_total");
  EXPECT_EQ(mine.counters[1].name, "test.scrape.a.counter_total");
  // ...and byte-identical expositions (which sort by name).
  EXPECT_EQ(encode_telemetry_str(first), encode_telemetry_str(second));
}

TEST(ObsMetrics, SnapshotMergeAndPrefix) {
  // Two processes' scrapes, as the coordinator folds worker snapshots.
  const snapshot a{.counters = {{"shared_total", 2}, {"only_a_total", 1}},
                   .gauges = {{"g", 1.0}},
                   .histograms = {{"h", {1.0}, {1, 0}, 0.5}}};
  const snapshot b{.counters = {{"shared_total", 5}, {"only_b_total", 7}},
                   .gauges = {{"g", 9.0}},
                   .histograms = {{"h", {1.0}, {0, 1}, 2.0}}};

  snapshot merged = a;
  merged.merge(b);
  ASSERT_EQ(merged.counters.size(), 3u);
  EXPECT_EQ(merged.counters[0].value, 7u);  // shared: 2 + 5
  EXPECT_EQ(merged.counters[1].value, 1u);
  EXPECT_EQ(merged.counters[2].name, "only_b_total");
  EXPECT_EQ(merged.counters[2].value, 7u);
  ASSERT_EQ(merged.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(merged.gauges[0].value, 9.0);  // gauges: last write wins
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].count(), 2u);
  EXPECT_EQ(merged.histograms[0].buckets[0], 1u);
  EXPECT_EQ(merged.histograms[0].buckets[1], 1u);
  EXPECT_DOUBLE_EQ(merged.histograms[0].sum, 2.5);
  // Mismatched bounds cannot be folded.
  const snapshot c{.counters = {},
                   .gauges = {},
                   .histograms = {{"h", {2.0}, {1, 0}, 0.5}}};
  EXPECT_THROW(merged.merge(c), error);

  const snapshot named = a.prefixed("worker.w0.");
  EXPECT_EQ(named.counters[0].name, "worker.w0.shared_total");
  EXPECT_EQ(named.gauges[0].name, "worker.w0.g");
  EXPECT_EQ(named.histograms[0].name, "worker.w0.h");
}

// -------------------------------------------------------------- telemetry

TEST(ObsTelemetry, RoundTripsThroughTheWireFormat) {
  registry& reg = registry::global();
  const std::size_t c = reg.counter("test.wire.c.one_total");
  const std::size_t h = reg.histogram("test.wire.h.lat", {0.001, 0.1, 10.0});
  const snapshot before = reg.scrape();
  reg.add(c, 42);
  reg.set(reg.gauge("test.wire.g.pi"), 3.141592653589793);
  reg.set(reg.gauge("test.wire.g.tiny"), 1e-300);
  reg.observe(h, 0.0005);
  reg.observe(h, 0.05);
  reg.observe(h, 1e6);

  const snapshot snap = delta(before, reg.scrape(), "test.wire.");
  const std::string wire = encode_telemetry_str(snap);
  EXPECT_TRUE(wire.starts_with("bsched-telemetry v1\n"));
  const snapshot back = decode_telemetry_str(wire);
  // Decoding re-sorts nothing the encoder didn't already sort, so the
  // doubles (shortest round-trip form) and counts survive exactly.
  EXPECT_EQ(encode_telemetry_str(back), wire);
  ASSERT_EQ(back.counters.size(), 1u);
  EXPECT_EQ(back.counters[0].value, 42u);
  ASSERT_EQ(back.gauges.size(), 2u);
  EXPECT_DOUBLE_EQ(back.gauges[0].value, 3.141592653589793);
  EXPECT_DOUBLE_EQ(back.gauges[1].value, 1e-300);
  ASSERT_EQ(back.histograms.size(), 1u);
  EXPECT_EQ(back.histograms[0].bounds, snap.histograms[0].bounds);
  EXPECT_EQ(back.histograms[0].buckets, snap.histograms[0].buckets);
  EXPECT_DOUBLE_EQ(back.histograms[0].sum, snap.histograms[0].sum);
}

TEST(ObsTelemetry, DecoderIsStrict) {
  const snapshot empty_snap;
  const std::string ok = encode_telemetry_str(empty_snap);
  EXPECT_EQ(decode_telemetry_str(ok), empty_snap);

  // Every malformed document is a typed bsched::error, never UB or a
  // partial snapshot.
  EXPECT_THROW((void)decode_telemetry_str(""), error);
  EXPECT_THROW((void)decode_telemetry_str("bsched-telemetry v2\nend\n"),
               error);
  EXPECT_THROW((void)decode_telemetry_str("bsched-telemetry v1\n"), error);
  EXPECT_THROW(
      (void)decode_telemetry_str("bsched-telemetry v1\nwat x 1\nend\n"),
      error);
  EXPECT_THROW(
      (void)decode_telemetry_str("bsched-telemetry v1\ncounter c\nend\n"),
      error);
  EXPECT_THROW((void)decode_telemetry_str(
                   "bsched-telemetry v1\ncounter c -1\nend\n"),
               error);
  EXPECT_THROW((void)decode_telemetry_str(
                   "bsched-telemetry v1\ngauge g nope\nend\n"),
               error);
  // Histogram with a field-count mismatch (claims 2 bounds, has 1).
  EXPECT_THROW((void)decode_telemetry_str(
                   "bsched-telemetry v1\nhist h bounds=2 1 0 0 0 sum=0\nend\n"),
               error);
  // Trailing junk after "end".
  EXPECT_THROW((void)decode_telemetry_str(
                   "bsched-telemetry v1\nend\ncounter c 1\n"),
               error);
}

TEST(ObsTelemetry, DecoderSharesTheCodecEdges) {
  snapshot snap;
  snap.counters = {{"a.total", 1}, {"b.total", 2}};
  snap.gauges = {{"a.total", 0.5}};
  snap.histograms = {{"h", {1, 10}, {1, 2, 3}, 7.5}};
  const std::string wire = encode_telemetry_str(snap);
  // CR-LF line ends read like LF, as in the dist codec.
  std::string crlf;
  for (const char c : wire) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  EXPECT_EQ(decode_telemetry_str(crlf), snap);

  // Names follow the encoder's order within a kind: sorted and unique (a
  // name may repeat across kinds, as "a.total" does above).
  EXPECT_THROW((void)decode_telemetry_str(
                   "bsched-telemetry v1\ncounter b 1\ncounter a 1\nend\n"),
               error);
  EXPECT_THROW((void)decode_telemetry_str(
                   "bsched-telemetry v1\ngauge g 1\ngauge g 2\nend\n"),
               error);

  // A bound count whose field-count arithmetic would wrap is refused, not
  // read past the line's last token.
  EXPECT_THROW((void)decode_telemetry_str(
                   "bsched-telemetry v1\n"
                   "hist h bounds=9223372036854775808 1 2\nend\n"),
               error);

  // Errors name the origin and the line.
  try {
    (void)decode_telemetry_str("bsched-telemetry v1\ncounter c 1\nwat\nend\n");
    FAIL() << "expected bsched::error";
  } catch (const error& e) {
    EXPECT_NE(std::string{e.what()}.find("obs: telemetry: line 3: "),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------------------ trace
//
// Each trace test starts from drained rings and leaves tracing off.

TEST(ObsTrace, DisabledSpansAreInert) {
  tracer& t = tracer::global();
  t.enable(false);
  (void)t.drain();
  const std::uint64_t dropped_before = t.dropped();
  {
    detail::span s{"ignored"};
    EXPECT_EQ(s.id(), 0u);
  }
  EXPECT_TRUE(t.drain().empty());
  EXPECT_EQ(t.dropped(), dropped_before);
}

TEST(ObsTrace, SpansRecordNestingAndExplicitParents) {
  tracer& t = tracer::global();
  (void)t.drain();
  t.enable(true);
  std::uint64_t outer_id = 0;
  {
    detail::span outer{"outer"};
    outer_id = outer.id();
    ASSERT_NE(outer_id, 0u);
    { detail::span inner{"inner"}; }
    // A cross-thread child links via the explicit-parent constructor.
    std::thread([outer_id] { detail::span child{"remote", outer_id}; })
        .join();
  }
  t.enable(false);

  const std::vector<span_record> spans = t.drain();
  ASSERT_EQ(spans.size(), 3u);
  const auto find = [&spans](const std::string& name) {
    for (const auto& s : spans) {
      if (s.name == name) return s;
    }
    throw error("test: span not drained: " + name);
  };
  const span_record outer = find("outer");
  const span_record inner = find("inner");
  const span_record remote = find("remote");
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner.parent, outer.id);   // implicit: innermost open span
  EXPECT_EQ(remote.parent, outer.id);  // explicit cross-thread link
  EXPECT_NE(remote.tid, outer.tid);
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_GE(outer.dur_ns, inner.dur_ns);
}

TEST(ObsTrace, ShortLivedThreadsReuseOneRing) {
  // A thread parks its ring on exit and the next thread adopts it, so
  // sequential threads share one tid and thread churn adds no rings.
  tracer& t = tracer::global();
  (void)t.drain();
  t.enable(true);
  for (int i = 0; i < 8; ++i) {
    std::thread([] { detail::span s{"churn"}; }).join();
  }
  t.enable(false);

  const std::vector<span_record> spans = t.drain();
  ASSERT_EQ(spans.size(), 8u);
  for (const span_record& s : spans) {
    EXPECT_EQ(s.name, "churn");
    EXPECT_EQ(s.tid, spans[0].tid);
  }
}

TEST(ObsTrace, RingOverflowDropsOldest) {
  // A ring holds 4096 spans; k more drop the k oldest.
  constexpr std::size_t kCapacity = 4096;
  constexpr std::size_t kExtra = 2;
  tracer& t = tracer::global();
  (void)t.drain();
  const std::uint64_t dropped_before = t.dropped();
  t.enable(true);
  for (std::size_t i = 0; i < kCapacity + kExtra; ++i) {
    detail::span s{i < kExtra ? "old" : "new"};
  }
  t.enable(false);

  const std::vector<span_record> spans = t.drain();
  ASSERT_EQ(spans.size(), kCapacity);  // ring capacity
  for (const auto& s : spans) EXPECT_EQ(s.name, "new");
  EXPECT_EQ(t.dropped() - dropped_before, kExtra);  // the oldest, counted
  // drain() clears the rings but dropped() is cumulative.
  EXPECT_TRUE(t.drain().empty());
  EXPECT_EQ(t.dropped() - dropped_before, kExtra);
}

TEST(ObsTrace, ChromeTraceExportEscapesAndShapes) {
  tracer& t = tracer::global();
  (void)t.drain();
  t.enable(true);
  {
    detail::span weird{"we\"ird\\name"};
  }
  t.enable(false);

  std::ostringstream out;
  write_chrome_trace(t.drain(), out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"we\\\"ird\\\\name\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

// ------------------------------------------------------------------ clock

TEST(ObsClock, ManualClockAdvancesOnDemand) {
  support::manual_clock mc;
  const auto t0 = mc.now();
  EXPECT_EQ(mc.now(), t0);  // frozen until told otherwise
  mc.advance(std::chrono::seconds(5));
  EXPECT_EQ(mc.now() - t0, std::chrono::seconds(5));

  const util::monotonic_clock& sys = util::monotonic_clock::system();
  const auto a = sys.now();
  EXPECT_GE(sys.now(), a);
}

// ----------------------------------------------------- search-stats fold

api::scenario opt_cell() {
  return api::scenario{.label = {},
                       .batteries = api::bank(2, kibam::battery_b1()),
                       .load = api::load_spec::parse(
                           "random:count=10,p=0.5,seed=7"),
                       .policy = "opt",
                       .model = api::fidelity::discrete,
                       .steps = {},
                       .sim = {}};
}

TEST(ObsSearchStats, CellSummaryFoldsSearchEffortAcrossReplications) {
  api::sweep sw;
  sw.cells.push_back(opt_cell());
  sw.replications = 3;
  sw.seed = 41;

  // Reference: hand-sum the per-delivery stats through a callback sink.
  const api::engine eng;
  opt::search_stats expect{};
  std::size_t deliveries = 0;
  api::callback_sink manual{[&](const api::sweep_result& r) {
    expect += r.result.search;
    ++deliveries;
  }};
  eng.run_sweep(sw, manual, 2);
  ASSERT_EQ(deliveries, 3u);
  EXPECT_GT(expect.nodes, 0u);  // "opt" actually searches

  // The summarize fold must equal the hand sum, cache hits included.
  api::summarize sink{sw};
  eng.run_sweep(sw, sink, 2);
  ASSERT_EQ(sink.cells().size(), 1u);
  EXPECT_EQ(sink.cells()[0].search, expect);

  // And the accumulator merge (the shard path) preserves it exactly:
  // replication 0 on one side, the other two on the other.
  api::cell_accumulator left;
  api::cell_accumulator right;
  eng.run_sweep(sw, [&](const api::sweep_result& r) {
    (r.replication == 0 ? left : right).add(r.result, r.cache_hit);
  });
  ASSERT_EQ(left.n(), 1u);
  ASSERT_EQ(right.n(), 2u);
  left.merge(right);
  EXPECT_EQ(left.search, expect);
}

// ------------------------------------------------------------------ fleet

api::sweep fleet_grid(std::size_t replications) {
  api::sweep sw;
  for (const char* policy : {"round_robin", "best_of_n"}) {
    sw.cells.push_back(
        api::scenario{.label = {},
                      .batteries = api::bank(2, kibam::battery_b1()),
                      .load = api::load_spec::parse(
                          "random:count=12,p=0.4,seed=1"),
                      .policy = policy,
                      .model = api::fidelity::discrete,
                      .steps = {},
                      .sim = {}});
  }
  sw.replications = replications;
  sw.seed = 2009;
  return sw;
}

// Every fleet test here holds each worker at its first chunk until the
// whole fleet holds a lease (support::first_chunk_clock on a latch), so
// every worker takes part however quickly the first could drain the
// sweep.

TEST(ObsFleet, WorkerItemCountersSumExactlyToSweepItems) {
  const api::sweep sw = fleet_grid(9);
  const std::size_t total = sw.cells.size() * sw.replications;

  svc::coordinator_options opts;
  opts.workers_expected = 3;
  // Small leases cut into smaller chunks: every lease spans several
  // chunk boundaries, so every worker that takes one heartbeats (and
  // piggybacks its telemetry snapshot) before finishing it.
  opts.lease_items = 3;
  opts.chunk_items = 1;
  opts.deadline_s = 120;
  std::size_t telemetry_emissions = 0;
  double last_uptime = -1.0;
  bool uptime_monotone = true;
  opts.telemetry_interval_s = 0.01;
  snapshot snap;  // the last view, emitted once on completion
  opts.on_telemetry = [&](const obs::snapshot& s) {
    ++telemetry_emissions;
    snap = s;
    for (const auto& g : s.gauges) {
      if (g.name != "svc.coordinator.uptime_s") continue;
      if (g.value < last_uptime) uptime_monotone = false;
      last_uptime = g.value;
    }
  };
  svc::coordinator coord{sw, opts};
  auto served = std::async(std::launch::async, [&coord] {
    return coord.run();
  });

  std::latch all_leased{3};
  const auto hold = [&all_leased] { all_leased.arrive_and_wait(); };
  const support::first_chunk_clock c0{hold}, c1{hold}, c2{hold};
  const api::engine engine;
  auto w0 = support::join_fleet(engine, coord.port(), "w0", &c0);
  auto w1 = support::join_fleet(engine, coord.port(), "w1", &c1);
  auto w2 = support::join_fleet(engine, coord.port(), "w2", &c2);

  const dist::shard_aggregate merged = served.get();
  (void)w0.get();
  (void)w1.get();
  (void)w2.get();
  ASSERT_EQ(merged.last_item - merged.first_item, total);

  // The acceptance property: the coordinator's per-worker accepted-item
  // counters tile the stream — summed across the fleet they equal the
  // sweep's (cell, replication) item count exactly, whatever the lease
  // distribution was.
  std::uint64_t fleet_items = 0;
  std::size_t workers_with_items = 0;
  for (const auto& c : snap.counters) {
    if (c.name.starts_with("svc.worker.") &&
        c.name.ends_with(".items_total")) {
      fleet_items += c.value;
      ++workers_with_items;
    }
  }
  EXPECT_EQ(workers_with_items, 3u);
  EXPECT_EQ(fleet_items, total);

  // The same totals appear in the coordinator's gauges, and the whole
  // view survives its own wire format.
  const auto gauge = [&snap](const std::string& name) {
    for (const auto& g : snap.gauges) {
      if (g.name == name) return g.value;
    }
    throw error("test: gauge not found: " + name);
  };
  EXPECT_EQ(gauge("svc.coordinator.total_items"),
            static_cast<double>(total));
  EXPECT_EQ(gauge("svc.coordinator.folded_items"),
            static_cast<double>(total));
  // The wire format re-sorts by name, so compare re-encodings (decode
  // then encode is the identity on expositions).
  const std::string wire = encode_telemetry_str(snap);
  EXPECT_EQ(encode_telemetry_str(decode_telemetry_str(wire)), wire);

  // Interval + completion emissions fired, and the uptime gauge counted
  // monotonically upward.
  EXPECT_GE(telemetry_emissions, 1u);
  EXPECT_TRUE(uptime_monotone);
  EXPECT_GE(last_uptime, 0.0);

#ifdef BSCHED_OBS_ENABLED
  // With the instrumentation compiled in, any worker that ran a lease
  // heartbeated a snapshot of the (process-global, shared with every
  // other test in this binary) registry, and the coordinator merged it
  // under its worker.<name>. prefix.
  bool saw_worker_snapshot = false;
  for (const auto& c : snap.counters) {
    if (c.name.starts_with("worker.") &&
        c.name.ends_with(".engine.items_total")) {
      saw_worker_snapshot = true;
      EXPECT_GT(c.value, 0u);
    }
  }
  EXPECT_TRUE(saw_worker_snapshot);
#endif
}

TEST(ObsFleet, WorkerNamesThatShareAMetricNameShareOneCounter) {
  // "w/0" and "w_0" both become the metric-safe "w_0": the fleet view
  // sums them into one counter, since a snapshot's names are unique
  // within a kind (the telemetry decoder refuses repeats).
  const api::sweep sw = fleet_grid(3);
  const std::size_t total = sw.cells.size() * sw.replications;
  svc::coordinator_options opts;
  opts.workers_expected = 2;
  opts.lease_items = 1;
  opts.deadline_s = 120;
  snapshot snap;  // the last view, emitted once on completion
  opts.on_telemetry = [&snap](const snapshot& s) { snap = s; };
  svc::coordinator coord{sw, opts};
  auto served = std::async(std::launch::async, [&coord] {
    return coord.run();
  });
  std::latch all_leased{2};
  const auto hold = [&all_leased] { all_leased.arrive_and_wait(); };
  const support::first_chunk_clock c0{hold}, c1{hold};
  const api::engine engine;
  auto w0 = support::join_fleet(engine, coord.port(), "w/0", &c0);
  auto w1 = support::join_fleet(engine, coord.port(), "w_0", &c1);
  (void)served.get();
  (void)w0.get();
  (void)w1.get();

  std::size_t counters_named = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "svc.worker.w_0.items_total") {
      ++counters_named;
      EXPECT_EQ(c.value, total);
    }
  }
  EXPECT_EQ(counters_named, 1u);
  const std::string wire = encode_telemetry_str(snap);
  EXPECT_EQ(encode_telemetry_str(decode_telemetry_str(wire)), wire);
}

TEST(ObsFleet, LongTelemetryIntervalStillSeesEveryLeasedWorker) {
  // Heartbeats carry a snapshot on each lease's first chunk and then
  // only at the telemetry cadence. With a cadence far longer than the
  // campaign, no worker ever re-scrapes — yet every worker that ran a
  // lease still shows up in the fleet view.
  const api::sweep sw = fleet_grid(12);
  svc::coordinator_options opts;
  opts.workers_expected = 3;
  opts.lease_items = 4;
  opts.chunk_items = 1;
  opts.deadline_s = 120;
  opts.telemetry_interval_s = 3600;
  snapshot snap;  // the last view, emitted once on completion
  opts.on_telemetry = [&snap](const snapshot& s) { snap = s; };
  svc::coordinator coord{sw, opts};
  auto served = std::async(std::launch::async, [&coord] {
    return coord.run();
  });
  std::latch all_leased{3};
  const auto hold = [&all_leased] { all_leased.arrive_and_wait(); };
  const support::first_chunk_clock c0{hold}, c1{hold}, c2{hold};
  const api::engine engine;
  auto w0 = support::join_fleet(engine, coord.port(), "w0", &c0);
  auto w1 = support::join_fleet(engine, coord.port(), "w1", &c1);
  auto w2 = support::join_fleet(engine, coord.port(), "w2", &c2);
  const dist::shard_aggregate merged = served.get();
  (void)w0.get();
  (void)w1.get();
  (void)w2.get();
  ASSERT_EQ(merged.last_item, sw.cells.size() * sw.replications);

  const auto has_counter = [&snap](const std::string& name) {
    for (const auto& c : snap.counters) {
      if (c.name == name) return c.value > 0;
    }
    return false;
  };
  for (const char* name : {"w0", "w1", "w2"}) {
    // Every worker holds a lease before any computes (see above).
    EXPECT_TRUE(has_counter(std::string{"svc.worker."} + name +
                            ".items_total"))
        << name;
#ifdef BSCHED_OBS_ENABLED
    EXPECT_TRUE(has_counter(std::string{"worker."} + name +
                            ".engine.items_total"))
        << name;
#endif
  }
}

}  // namespace
}  // namespace bsched::obs
