// Concurrency stress suites — racy-by-construction schedules for the
// sanitizer CI flavours (scripts/ci.sh asan-ubsan / tsan), runnable
// standalone with `ctest -R Stress`.
//
// Every test here is seeded and bounded: the *output* is deterministic
// (aggregates compare exactly against a single-threaded reference, frame
// streams replay a fixed rng), while the *schedule* maximizes
// interleavings — thread counts well above the core count, chunk/lease
// sizes of one item, forced lease expiry, abrupt disconnects, and
// full-duplex socket traffic. The goldens cannot see a data race that
// happens to produce the right bytes today; these schedules exist to
// give TSan something to bite.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <iterator>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "api/scenario.hpp"
#include "api/sweep.hpp"
#include "dist/codec.hpp"
#include "dist/shard.hpp"
#include "kibam/bank.hpp"
#include "kibam/discrete.hpp"
#include "kibam/parameters.hpp"
#include "load/jobs.hpp"
#include "load/trace.hpp"
#include "net/message.hpp"
#include "net/socket.hpp"
#include "opt/search.hpp"
#include "sched/simulator.hpp"
#include "support/fleet.hpp"
#include "svc/coordinator.hpp"
#include "svc/worker.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bsched {
namespace {

// Sanitizer builds run 5-15x slower; widen timing margins and shrink
// iteration counts without changing any asserted value.
#ifdef BSCHED_SANITIZED
constexpr int kTimeScale = 4;
constexpr std::size_t kLoadScale = 4;
#else
constexpr int kTimeScale = 1;
constexpr std::size_t kLoadScale = 1;
#endif

constexpr int kIoTimeoutMs = 20000 * kTimeScale;

// --- StressSweep: run_sweep worker pool over shared banks ---------------

/// A grid whose discrete cells all share (batteries, steps), so run_sweep
/// evaluates them over one kibam::bank — the code path where one thread
/// builds the bank while others wait for it, and then every thread reads
/// it at once. One cell always fails, so the failure counter crosses the
/// pool too.
api::sweep shared_bank_grid(std::size_t replications) {
  api::sweep sw;
  for (const char* load : {"random:count=16,p=0.35,seed=11",
                           "markov:count=16,p=0.6,seed=7"}) {
    for (const char* policy : {"round_robin", "best_of_n", "random:seed=5"}) {
      sw.cells.push_back(api::scenario{
          .label = {},
          .batteries = api::bank(3, kibam::battery_b1()),
          .load = api::load_spec::parse(load),
          .policy = policy,
          .model = api::fidelity::discrete,
          .steps = {},
          .sim = {}});
    }
  }
  sw.cells.push_back(api::scenario{
      .label = {},
      .batteries = api::bank(2, kibam::battery_b1()),
      .load = api::load_spec::parse("random:count=16,p=0.35,seed=11"),
      .policy = "no_such_policy",
      .model = api::fidelity::discrete,
      .steps = {},
      .sim = {}});
  sw.replications = replications;
  sw.seed = 2009;
  return sw;
}

TEST(StressSweep, OversubscribedPoolMatchesSingleThreadExactly) {
  const api::sweep sw = shared_bank_grid(24 / kLoadScale * kLoadScale);
  const api::engine eng;

  api::summarize ref{sw};
  const api::sweep_stats ref_stats = eng.run_sweep(sw, ref, 1);

  // Thread counts far above the core count force preemption inside the
  // shared bank build and the ordered-flush mutex; the documented contract
  // is byte-identical aggregates for ANY thread count, so the comparison
  // is operator== on every summary field, not a tolerance.
  for (const std::size_t threads : {2u, 5u, 16u}) {
    for (int round = 0; round < (threads == 16 ? 3 : 1); ++round) {
      api::summarize sink{sw};
      const api::sweep_stats stats = eng.run_sweep(sw, sink, threads);
      EXPECT_EQ(stats, ref_stats) << threads << " threads, round " << round;
      ASSERT_EQ(sink.cells().size(), ref.cells().size());
      for (std::size_t c = 0; c < ref.cells().size(); ++c) {
        EXPECT_EQ(sink.cells()[c], ref.cells()[c])
            << threads << " threads, round " << round << ", cell " << c;
      }
    }
  }
}

TEST(StressSweep, DeliveryStaysInGridOrderUnderOversubscription) {
  const api::sweep sw = shared_bank_grid(12);
  const std::size_t total = sw.cells.size() * sw.replications;
  const api::engine eng;

  // The sink contract: every item exactly once, strictly in grid order,
  // calls serialized. A racing flush would surface here as a duplicate,
  // a gap, or (under TSan) a lock violation.
  std::atomic<std::size_t> concurrent{0};
  std::vector<std::size_t> seen;
  seen.reserve(total);
  api::callback_sink sink{[&](const api::sweep_result& r) {
    EXPECT_EQ(concurrent.fetch_add(1), 0u) << "sink calls not serialized";
    seen.push_back(r.cell * sw.replications + r.replication);
    concurrent.fetch_sub(1);
  }};
  eng.run_sweep(sw, sink, 16);

  ASSERT_EQ(seen.size(), total);
  for (std::size_t i = 0; i < total; ++i) EXPECT_EQ(seen[i], i);
}

// --- StressSearch: concurrent exact searches, each on a private memo ----

TEST(StressSearch, ConcurrentSearchesOnPrivateMemosStayExact) {
  // Exact searches of 18 cells run at once on a 16-thread sweep pool, far
  // wider than the core count: opt and worst on a homogeneous and a mixed
  // 5.5 + 4.0 bank, plus a second opt cell per (bank, load) under a knob
  // that leaves the search unchanged, so the same problem is solved twice
  // concurrently. Every search owns its memo and scratch pool; the cells
  // share only the engine's cached banks and the discretized loads'
  // inputs. The contract is bit-identical results — lifetime, decisions,
  // trace and search statistics — against a sequential reference, every
  // round: shared mutable state between searches shows up here as a
  // wrong decision vector even when TSan is off, and as a report when it
  // is on.
  const std::vector<std::vector<kibam::battery_parameters>> banks{
      api::bank(2, kibam::battery_b1()),
      {kibam::itsy_battery(5.5), kibam::itsy_battery(4.0)}};
  api::sweep sw;
  for (const auto& batteries : banks) {
    for (const load::test_load l :
         {load::test_load::ils_alt, load::test_load::ils_r1,
          load::test_load::cl_alt}) {
      for (const char* policy :
           {"opt", "worst", "opt:max_nodes=100000000"}) {
        sw.cells.push_back(api::scenario{.label = {},
                                         .batteries = batteries,
                                         .load = l,
                                         .policy = policy,
                                         .model = api::fidelity::discrete,
                                         .steps = {},
                                         .sim = {}});
      }
    }
  }
  sw.replications = 1;

  // Sequential references: the engine's single-call path on this thread,
  // and the search itself, whose decision list the simulator replays.
  const api::engine eng;
  std::vector<api::run_result> ref;
  for (const api::scenario& cell : sw.cells) {
    ref.push_back(eng.run(cell));
    const kibam::bank bank{cell.batteries};
    const load::trace t = cell.load.materialize();
    const opt::optimal_result plan = cell.policy == "worst"
                                         ? opt::worst_schedule(bank, t)
                                         : opt::optimal_schedule(bank, t);
    std::vector<std::size_t> replayed;
    for (const sched::decision& d : ref.back().sim.decisions) {
      replayed.push_back(d.battery);
    }
    EXPECT_EQ(replayed, plan.decisions) << cell.describe();
    EXPECT_EQ(ref.back().search, plan.stats) << cell.describe();
  }

  for (int round = 0; round < 2; ++round) {
    std::vector<api::run_result> got(sw.cells.size());
    const api::sweep_stats stats = eng.run_sweep(
        sw, [&](const api::sweep_result& r) { got[r.cell] = r.result; }, 16);
    EXPECT_EQ(stats.failures, 0u);
    for (std::size_t c = 0; c < sw.cells.size(); ++c) {
      EXPECT_EQ(got[c].sim.lifetime_min, ref[c].sim.lifetime_min)
          << "round " << round << ", " << sw.cells[c].describe();
      EXPECT_EQ(got[c], ref[c])
          << "round " << round << ", " << sw.cells[c].describe();
    }
  }
}

// --- StressKibam: per-thread transition memos under the sweep pool -----

TEST(StressKibam, MemoizedRolloutsAndSearchesMatchOneThreadBitForBit) {
  // bank::advance_all memoises single-battery transitions in a table per
  // thread. Lookahead rollouts and exact searches on a mixed 5.5 + 11.0
  // Amin bank run on an 8-thread pool, so each pool thread's memo sees an
  // arbitrary slice of the cells (starting cold on its first advance),
  // while the 1-thread run pushes every cell through one memo. Any entry
  // leaking between threads or applying where it should not shows up as
  // a run_result that differs from the 1-thread one.
  api::sweep sw;
  const std::vector<kibam::battery_parameters> mixed{
      kibam::itsy_battery(5.5), kibam::itsy_battery(11.0)};
  const auto add = [&](const api::load_spec& load, const char* policy) {
    sw.cells.push_back(api::scenario{.label = {},
                                     .batteries = mixed,
                                     .load = load,
                                     .policy = policy,
                                     .model = api::fidelity::discrete,
                                     .steps = {},
                                     .sim = {}});
  };
  for (const char* policy : {"lookahead:horizon=2", "opt"}) {
    add(api::load_spec::parse("markov:count=12,p=0.6,seed=5"), policy);
    add(load::test_load::ils_alt, policy);
    add(load::test_load::cl_alt, policy);
  }
  // A longer random load for the rollouts only (its exact search is ten
  // times the markov one's).
  add(api::load_spec::parse("random:count=12,p=0.4,seed=3"),
      "lookahead:horizon=2");
  sw.replications = 8 / kLoadScale;
  sw.seed = 2009;

  const api::engine eng;
  const auto run = [&](std::size_t threads) {
    std::vector<api::run_result> got(sw.cells.size() * sw.replications);
    const api::sweep_stats stats = eng.run_sweep(
        sw,
        [&](const api::sweep_result& r) {
          got[r.cell * sw.replications + r.replication] = r.result;
        },
        threads);
    EXPECT_EQ(stats.failures, 0u);
    return got;
  };
  const std::vector<api::run_result> ref = run(1);
  for (int round = 0; round < 2; ++round) {
    const std::vector<api::run_result> got = run(8);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i], ref[i])
          << "round " << round << ", "
          << sw.cells[i / sw.replications].describe() << ", replication "
          << i % sw.replications;
    }
  }
}

// --- StressSvc: coordinator + in-process fleet under forced failures ----

TEST(StressSvc, FleetSurvivesSilenceDisconnectsAndSteals) {
  api::sweep sw;
  for (const char* load : {"random:count=12,p=0.4,seed=1",
                           "markov:count=12,p=0.7,seed=2"}) {
    for (const char* policy : {"round_robin", "best_of_n"}) {
      sw.cells.push_back(api::scenario{
          .label = {},
          .batteries = api::bank(2, kibam::battery_b1()),
          .load = api::load_spec::parse(load),
          .policy = policy,
          .model = api::fidelity::discrete,
          .steps = {},
          .sim = {}});
    }
  }
  sw.replications = 8;
  sw.seed = 2009;

  const std::vector<api::cell_summary> ref = support::reference(sw);
  const api::engine eng;

  // Tiny leases and one-item chunks maximize protocol traffic; the short
  // lease timeout guarantees the silent fake's lease expires mid-run.
  svc::coordinator_options opts;
  opts.lease_items = 2;
  opts.chunk_items = 1;
  opts.lease_timeout_s = 0.5 * kTimeScale;
  opts.deadline_s = 240;
  svc::coordinator coord{sw, opts};
  auto served = std::async(std::launch::async, [&coord] { return coord.run(); });

  // Misbehaving fakes first, each holding a lease of its own: one holds
  // its lease in silence until it has expired (its late result must be
  // rejected), one takes a lease and vanishes (abrupt close -> immediate
  // re-queue), one ships a truncated aggregate (rejected, range
  // re-queued) and one announces a frame past the frame cap
  // mid-lease (dropped, lease re-queued).
  support::fake_worker silent{coord.port(), kIoTimeoutMs};
  const net::message held = silent.take_lease();
  {
    support::fake_worker vanishing{coord.port(), kIoTimeoutMs};
    (void)vanishing.take_lease();
    vanishing.conn.close();
  }
  {
    support::fake_worker truncating{coord.port(), kIoTimeoutMs};
    net::message result =
        truncating.result_for(eng, truncating.take_lease());
    result.body.resize(result.body.size() / 2);
    truncating.send(std::move(result));
    const net::message nack = truncating.recv();
    ASSERT_EQ(nack.type, "ack");
    EXPECT_EQ(nack.u64("ok"), 0u);
    truncating.conn.close();
  }
  {
    support::fake_worker oversized{coord.port(), kIoTimeoutMs};
    const net::message lease = oversized.take_lease();
    net::message hb = net::make("heartbeat");
    hb.fields["lease"] = lease.str("lease");
    hb.fields["epoch"] = lease.str("epoch");
    hb.fields["done"] = lease.str("first");
    oversized.send(std::move(hb));
    oversized.announce_oversized_frame();
    EXPECT_THROW((void)oversized.recv(), error);  // the coordinator hung up
  }

  // Outlive the held lease, then ship its result anyway: the epoch is
  // retired, so the coordinator must reject it instead of double-folding.
  // This happens before the real fleet joins — with workers racing, the
  // campaign could finish and shut the fake down before the ack arrives.
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(1500 * kTimeScale)));
  net::message late = net::make("result");
  late.fields["lease"] = held.str("lease");
  late.fields["epoch"] = held.str("epoch");
  late.body = "stale payload, never decoded";
  silent.send(std::move(late));
  const net::message ack = silent.recv();
  ASSERT_EQ(ack.type, "ack");
  EXPECT_EQ(ack.u64("ok"), 0u);
  silent.conn.close();

  // The real fleet: each worker holds its first chunk until all three
  // hold a lease, so none is late to a campaign the others finished.
  std::latch all_leased{3};
  const auto hold = [&all_leased] { all_leased.arrive_and_wait(); };
  const support::first_chunk_clock c0{hold}, c1{hold}, c2{hold};
  const auto join = [&](const std::string& name,
                        const util::monotonic_clock& clock) {
    return std::async(std::launch::async,
                      [&eng, port = coord.port(), name, &clock] {
                        svc::worker_options wopts;
                        wopts.port = port;
                        wopts.name = name;
                        // worker-internal pool on top of the fleet
                        wopts.n_threads = 2;
                        wopts.io_timeout_ms = kIoTimeoutMs;
                        wopts.clock = &clock;
                        return svc::run_worker(eng, wopts);
                      });
  };
  auto w0 = join("w0", c0);
  auto w1 = join("w1", c1);
  auto w2 = join("w2", c2);

  const dist::shard_aggregate merged = served.get();
  (void)w0.get();
  (void)w1.get();
  (void)w2.get();

  support::expect_equivalent(dist::summaries(merged), ref);
  const svc::coordinator_counters& c = coord.counters();
  EXPECT_GE(c.expired, 1u);
  // The vanished fake's lease and the oversized frame's; the truncated
  // and the late result.
  EXPECT_GE(c.requeued_disconnect, 2u);
  EXPECT_GE(c.results_rejected, 2u);
  EXPECT_EQ(c.workers_seen, 7u);  // four fakes, three real workers
}

// --- StressNet: full-duplex framed traffic under concurrency ------------

/// Deterministic frame stream: sizes span empty frames, the 4-byte
/// header boundary, typical messages and multi-segment payloads, so the
/// reassembly buffer sees every fragmentation shape loopback can produce.
std::string frame_payload(rng& gen) {
  static constexpr std::size_t sizes[] = {0, 1, 3, 4, 5, 64, 1000, 65536,
                                          1u << 20};
  const std::size_t n = sizes[gen.below(std::size(sizes))];
  std::string out(n, '\0');
  for (char& ch : out) ch = static_cast<char>(gen() & 0xff);
  return out;
}

TEST(StressNet, FullDuplexFragmentedFramesArriveIntactAndInOrder) {
  const std::size_t frames = 200 / kLoadScale;
  net::listener lst{0};
  net::connection client;
  auto dialed = std::async(std::launch::async, [port = lst.port()] {
    return net::connection::dial("127.0.0.1", port, kIoTimeoutMs);
  });
  net::connection server = lst.accept();
  client = dialed.get();

  // One sender and one receiver thread per direction, all four live at
  // once: the send path (fd only) and the recv path (fd + reassembly
  // buffer) of one connection run concurrently, which is exactly the
  // sharing pattern the coordinator relies on being race-free.
  const auto pump_out = [frames](net::connection& conn, std::uint64_t seed) {
    rng gen{seed};
    for (std::size_t i = 0; i < frames; ++i) {
      conn.send_frame(frame_payload(gen), kIoTimeoutMs);
    }
  };
  const auto pump_in = [frames](net::connection& conn, std::uint64_t seed) {
    rng gen{seed};
    for (std::size_t i = 0; i < frames; ++i) {
      const auto got = conn.recv_frame(kIoTimeoutMs);
      ASSERT_TRUE(got.has_value()) << "frame " << i << " timed out";
      const std::string want = frame_payload(gen);
      ASSERT_EQ(got->size(), want.size()) << "frame " << i;
      ASSERT_EQ(*got, want) << "frame " << i;
    }
  };

  std::thread c2s_tx{[&] { pump_out(client, 41); }};
  std::thread c2s_rx{[&] { pump_in(server, 41); }};
  std::thread s2c_tx{[&] { pump_out(server, 97); }};
  std::thread s2c_rx{[&] { pump_in(client, 97); }};
  c2s_tx.join();
  c2s_rx.join();
  s2c_tx.join();
  s2c_rx.join();

  // Both directions drained completely: an immediate poll sees nothing.
  EXPECT_FALSE(server.recv_frame(0).has_value());
  EXPECT_FALSE(client.recv_frame(0).has_value());
}

TEST(StressNet, ConcurrentMessageEncodeDecodeIsShareable) {
  // net::encode/decode are pure; hammering one shared message value from
  // many threads must be race-free (the coordinator formats acks and
  // trims for several peers off shared state).
  net::message shared = net::make("lease");
  shared.fields["lease"] = "7";
  shared.fields["epoch"] = "3";
  shared.fields["first"] = "0";
  shared.fields["last"] = "12345";
  shared.body = std::string(4096, 'b');
  const std::string wire = net::encode(shared);

  std::vector<std::thread> pool;
  std::atomic<std::size_t> decoded{0};
  pool.reserve(8);
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < 400 / static_cast<int>(kLoadScale); ++i) {
        const net::message m = net::decode(wire);
        if (m.u64("last") == 12345 && net::encode(m) == wire) {
          decoded.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(decoded.load(), 8u * (400 / kLoadScale));
}

}  // namespace
}  // namespace bsched
