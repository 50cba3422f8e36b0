// The fault-tolerant sweep service (src/net + src/svc), exercised over
// loopback sockets: a healthy multi-worker fleet, lease expiry and
// reassignment, a worker dying mid-shard, work-steal splits,
// duplicate/stale result rejection, and corrupt results and oversized
// frames from a worker holding a live lease, the end of a campaign
// (completion or deadline) as late workers and held leases see it, and
// the worker's heartbeat cadence against a scripted coordinator. The
// acceptance property throughout: whatever the failure pattern, the
// merged aggregate reproduces the single-process run_sweep + summarize
// statistics exactly, every field but the per-process cache accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <latch>
#include <memory>
#include <mutex>
#include <ostream>
#include <streambuf>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "../tools/sweep_common.hpp"
#include "api/engine.hpp"
#include "api/scenario.hpp"
#include "api/sweep.hpp"
#include "dist/codec.hpp"
#include "dist/shard.hpp"
#include "net/message.hpp"
#include "net/socket.hpp"
#include "obs/telemetry.hpp"
#include "support/fleet.hpp"
#include "support/manual_clock.hpp"
#include "svc/coordinator.hpp"
#include "svc/worker.hpp"
#include "util/error.hpp"

namespace bsched::svc {
namespace {

using support::expect_equivalent;
using support::fake_worker;
using support::first_chunk_clock;
using support::join_fleet;
using support::reference;

api::scenario cell(api::load_spec load, std::string policy) {
  return api::scenario{.label = {},
                       .batteries = api::bank(2, kibam::battery_b1()),
                       .load = std::move(load),
                       .policy = std::move(policy),
                       .model = api::fidelity::discrete,
                       .steps = {},
                       .sim = {}};
}

/// A small replicated random-load grid plus one always-failing cell, so
/// failure counts cross the service too.
api::sweep grid(std::size_t replications) {
  api::sweep sw;
  for (const char* load : {"random:count=12,p=0.4,seed=1",
                           "markov:count=12,p=0.7,seed=2"}) {
    for (const char* policy : {"round_robin", "best_of_n"}) {
      sw.cells.push_back(cell(api::load_spec::parse(load), policy));
    }
  }
  sw.cells.push_back(cell(api::load_spec::parse("random:count=12,p=0.4,seed=1"),
                          "no_such_policy"));
  sw.replications = replications;
  sw.seed = 2009;
  return sw;
}

/// Launches coordinator::run() on a thread; future.get() re-throws any
/// coordinator-side error in the test body.
std::future<dist::shard_aggregate> serve(coordinator& coord) {
  return std::async(std::launch::async, [&coord] { return coord.run(); });
}

/// A coordinator_options::log sink another thread can wait on: it keeps
/// everything written and wakes waiters on every write.
class log_watch final : public std::streambuf {
 public:
  /// Blocks until the log so far contains `text`.
  void wait_for(const std::string& text) {
    std::unique_lock lock{mu_};
    seen_.wait(lock, [&] { return text_.find(text) != std::string::npos; });
  }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    append(std::string(s, static_cast<std::size_t>(n)));
    return n;
  }
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      append(std::string(1, traits_type::to_char_type(ch)));
    }
    return traits_type::not_eof(ch);
  }

 private:
  void append(const std::string& part) {
    {
      const std::lock_guard lock{mu_};
      text_ += part;
    }
    seen_.notify_all();
  }

  std::mutex mu_;
  std::condition_variable seen_;
  std::string text_;
};

TEST(SvcService, ThreeWorkerFleetReproducesSingleProcess) {
  const api::sweep sw = grid(8);
  const std::vector<api::cell_summary> ref = reference(sw);

  coordinator_options opts;
  opts.workers_expected = 3;
  opts.chunk_items = 2;
  opts.deadline_s = 120;
  coordinator coord{sw, opts};
  auto served = serve(coord);

  // Each worker holds its first chunk until all three hold a lease, so
  // none can drain this small sweep before another has joined.
  std::latch all_leased{3};
  const auto hold = [&all_leased] { all_leased.arrive_and_wait(); };
  const first_chunk_clock c0{hold}, c1{hold}, c2{hold};
  const api::engine engine;
  auto w0 = join_fleet(engine, coord.port(), "w0", &c0);
  auto w1 = join_fleet(engine, coord.port(), "w1", &c1);
  auto w2 = join_fleet(engine, coord.port(), "w2", &c2);

  const dist::shard_aggregate merged = served.get();
  const worker_report r0 = w0.get();
  const worker_report r1 = w1.get();
  const worker_report r2 = w2.get();

  expect_equivalent(dist::summaries(merged), ref);
  EXPECT_EQ(merged.first_item, 0u);
  EXPECT_EQ(merged.last_item, sw.cells.size() * sw.replications);
  // Every item was computed exactly once across the healthy fleet.
  EXPECT_EQ(r0.items + r1.items + r2.items,
            sw.cells.size() * sw.replications);
  EXPECT_EQ(r0.rejected + r1.rejected + r2.rejected, 0u);

  const coordinator_counters& c = coord.counters();
  EXPECT_EQ(c.workers_seen, 3u);
  EXPECT_EQ(c.expired, 0u);
  EXPECT_EQ(c.results_rejected, 0u);
  // Every granted lease yields exactly one accepted result — a stolen
  // tail is re-granted as its own lease, a trimmed lease still reports
  // its shortened range.
  EXPECT_EQ(c.results_accepted, c.leases_granted);
}

TEST(SvcService, DemoGridFleetsEqualSingleProcessAtScale) {
  // The exact contract on a large sweep: the demo grid at 2 500
  // replications a cell, on fleets of 1, 2 and 3 workers, with steals on
  // and off. Every summary field but the per-process cache accounting
  // equals the single-process run's.
  const api::sweep sw = tools::demo_sweep(2500);
  const std::vector<api::cell_summary> ref = reference(sw);
  const std::size_t total = sw.cells.size() * sw.replications;
  const api::engine engine;
  for (const std::size_t workers : {1u, 2u, 3u}) {
    for (const bool steal : {false, true}) {
      SCOPED_TRACE(std::to_string(workers) + " worker(s), steal " +
                   (steal ? "on" : "off"));
      log_watch watch;
      std::ostream log_stream{&watch};
      coordinator_options opts;
      opts.workers_expected = workers;
      opts.deadline_s = 120;
      opts.steal = steal;
      opts.log = &log_stream;
      // With steals on, one lease spans the stream and the other workers
      // get work only by stealing; with steals off every worker holds its
      // first chunk until all hold a lease, so all of them take part.
      if (steal) opts.lease_items = total;
      coordinator coord{sw, opts};
      auto served = serve(coord);
      std::latch all_leased{static_cast<std::ptrdiff_t>(workers)};
      const std::function<void()> hold =
          steal ? std::function<void()>{[&watch, workers] {
            if (workers > 1) watch.wait_for("proposing trim");
          }}
                : std::function<void()>{[&all_leased] {
                    all_leased.arrive_and_wait();
                  }};
      std::vector<std::unique_ptr<first_chunk_clock>> clocks;
      std::vector<std::future<worker_report>> fleet;
      for (std::size_t w = 0; w < workers; ++w) {
        clocks.push_back(std::make_unique<first_chunk_clock>(hold));
        fleet.push_back(join_fleet(engine, coord.port(), std::to_string(w),
                                   clocks.back().get()));
      }
      const dist::shard_aggregate merged = served.get();
      std::size_t items = 0;
      for (auto& f : fleet) items += f.get().items;
      EXPECT_EQ(items, total);
      EXPECT_EQ(merged.last_item, total);
      expect_equivalent(dist::summaries(merged), ref);
      if (steal && workers > 1) {
        EXPECT_GE(coord.counters().steals, 1u);
      } else {
        EXPECT_EQ(coord.counters().steals, 0u);
      }
    }
  }
}

TEST(SvcService, LeaseResultIsOneContiguousFold) {
  // One worker, one lease over the whole stream, run in the default
  // 4-item chunks: the folded result must be exactly dist::run_shard over
  // the same range — every value count bit for bit, since chunks
  // append item by item — with only the per-process cache accounting
  // allowed to differ.
  const api::sweep sw = grid(40);
  const std::size_t total = sw.cells.size() * sw.replications;
  coordinator_options opts;
  opts.lease_items = total;
  opts.steal = false;
  opts.deadline_s = 120;
  coordinator coord{sw, opts};
  auto served = serve(coord);
  const api::engine engine;
  auto w = join_fleet(engine, coord.port(), "solo");
  dist::shard_aggregate merged = served.get();
  EXPECT_EQ(w.get().items, total);

  dist::shard_aggregate contiguous =
      dist::run_shard(engine, dist::plan_shard(sw, 0, 1), 1);
  for (dist::shard_aggregate* agg : {&merged, &contiguous}) {
    agg->stats.evaluated = 0;
    agg->stats.cache_hits = 0;
    for (dist::cell_record& c : agg->cells) c.agg.cache_hits = 0;
  }
  EXPECT_EQ(merged, contiguous);
}

TEST(SvcService, ExpiredLeaseIsReassignedAndStaleResultRejected) {
  const api::sweep sw = grid(4);
  const std::vector<api::cell_summary> ref = reference(sw);
  const std::size_t total = sw.cells.size() * sw.replications;

  coordinator_options opts;
  opts.lease_items = total;  // one lease covers the whole stream
  opts.lease_timeout_s = 0.3;
  opts.steal = false;
  opts.deadline_s = 120;
  coordinator coord{sw, opts};
  auto served = serve(coord);

  // The fake takes the only lease and goes silent — no heartbeat, no
  // result — until the lease has long expired.
  fake_worker fake{coord.port()};
  const net::message lease = fake.take_lease();
  EXPECT_EQ(lease.u64("first"), 0u);
  EXPECT_EQ(lease.u64("last"), total);
  std::this_thread::sleep_for(std::chrono::milliseconds(900));

  // Its late result names a retired (lease, epoch) and must be rejected
  // — the body is not even looked at.
  net::message late = net::make("result");
  late.fields["lease"] = lease.str("lease");
  late.fields["epoch"] = lease.str("epoch");
  late.body = "stale payload, never decoded";
  fake.send(std::move(late));
  const net::message ack = fake.recv();
  ASSERT_EQ(ack.type, "ack");
  EXPECT_EQ(ack.str("lease"), lease.str("lease"));
  EXPECT_EQ(ack.u64("ok"), 0u);
  fake.conn.close();

  // A healthy worker picks up the re-queued range and finishes the sweep.
  const api::engine engine;
  auto w = join_fleet(engine, coord.port(), "rescue");
  const dist::shard_aggregate merged = served.get();
  const worker_report report = w.get();

  expect_equivalent(dist::summaries(merged), ref);
  EXPECT_EQ(report.items, total);
  const coordinator_counters& c = coord.counters();
  EXPECT_GE(c.expired, 1u);
  EXPECT_GE(c.results_rejected, 1u);
  EXPECT_GE(c.leases_granted, 2u);
}

TEST(SvcService, WorkerDyingMidShardStillMergesExactly) {
  const api::sweep sw = grid(4);
  const std::vector<api::cell_summary> ref = reference(sw);
  const std::size_t total = sw.cells.size() * sw.replications;

  coordinator_options opts;
  opts.lease_items = total / 2;
  opts.steal = false;
  opts.deadline_s = 120;
  coordinator coord{sw, opts};
  auto served = serve(coord);

  // The fake takes a lease and dies on the spot (abrupt socket close,
  // the in-process stand-in for kill -9 — the CI smoke does the real
  // thing). The coordinator must re-queue its range immediately.
  {
    fake_worker fake{coord.port()};
    const net::message lease = fake.take_lease();
    EXPECT_LT(lease.u64("first"), lease.u64("last"));
    fake.conn.close();
  }

  const api::engine engine;
  auto w = join_fleet(engine, coord.port(), "survivor");
  const dist::shard_aggregate merged = served.get();
  const worker_report report = w.get();

  expect_equivalent(dist::summaries(merged), ref);
  EXPECT_EQ(report.items, total);  // the survivor recomputed everything
  const coordinator_counters& c = coord.counters();
  EXPECT_GE(c.requeued_disconnect, 1u);
  EXPECT_GE(c.disconnects, 1u);
  EXPECT_EQ(c.expired, 0u);  // disconnects re-queue without waiting
}

TEST(SvcService, StragglerSplitKeepsCoverageDisjoint) {
  const api::sweep sw = grid(8);
  const std::vector<api::cell_summary> ref = reference(sw);
  const std::size_t total = sw.cells.size() * sw.replications;

  // One lease spans the whole stream, so the first worker to connect
  // becomes the straggler; the second can only ever get work through a
  // steal. Chunk 1 gives the trim handshake item resolution. Neither
  // worker starts computing until the coordinator has put a trim on the
  // wire (it logs the proposal after the send), so the straggler reads
  // that trim after its first chunk, however fast the grid runs.
  log_watch watch;
  std::ostream log_stream{&watch};
  coordinator_options opts;
  opts.lease_items = total;
  opts.chunk_items = 1;
  opts.deadline_s = 120;
  opts.log = &log_stream;
  coordinator coord{sw, opts};
  auto served = serve(coord);

  const auto trim_sent = [&watch] { watch.wait_for("proposing trim"); };
  const first_chunk_clock c0{trim_sent}, c1{trim_sent};
  const api::engine engine;
  auto w0 = join_fleet(engine, coord.port(), "straggler", &c0);
  auto w1 = join_fleet(engine, coord.port(), "thief", &c1);

  const dist::shard_aggregate merged = served.get();
  const worker_report r0 = w0.get();
  const worker_report r1 = w1.get();

  // Disjoint coverage is what stream_merger validates on every add();
  // equivalence then proves the split ranges tiled the stream exactly.
  expect_equivalent(dist::summaries(merged), ref);
  const coordinator_counters& c = coord.counters();
  EXPECT_GE(c.steals, 1u);
  EXPECT_EQ(c.expired, 0u);
  EXPECT_EQ(c.results_rejected, 0u);
  EXPECT_EQ(r0.items + r1.items, total);
  EXPECT_GE(r0.trims + r1.trims, 1u);
}

TEST(SvcService, DuplicateResultForSameLeaseEpochRejected) {
  const api::sweep sw = grid(4);
  const std::vector<api::cell_summary> ref = reference(sw);
  const std::size_t total = sw.cells.size() * sw.replications;

  coordinator_options opts;
  opts.lease_items = total / 2;
  opts.steal = false;
  opts.deadline_s = 120;
  coordinator coord{sw, opts};
  auto served = serve(coord);

  // The fake computes its lease honestly (over the wire-decoded sweep —
  // no compiled-in grid) and ships the result twice.
  fake_worker fake{coord.port()};
  const net::message lease = fake.take_lease();
  const api::engine engine;
  const net::message result = fake.result_for(engine, lease);

  fake.send(result);
  const net::message first_ack = fake.recv();
  ASSERT_EQ(first_ack.type, "ack");
  EXPECT_EQ(first_ack.u64("ok"), 1u);

  // Same lease, same epoch, byte-identical payload: the lease is
  // retired, so the duplicate must be rejected, not folded twice.
  fake.send(result);
  const net::message second_ack = fake.recv();
  ASSERT_EQ(second_ack.type, "ack");
  EXPECT_EQ(second_ack.u64("ok"), 0u);
  fake.conn.close();

  const api::engine worker_engine;
  auto w = join_fleet(worker_engine, coord.port(), "closer");
  const dist::shard_aggregate merged = served.get();
  (void)w.get();

  expect_equivalent(dist::summaries(merged), ref);
  const coordinator_counters& c = coord.counters();
  EXPECT_GE(c.results_rejected, 1u);
  EXPECT_EQ(c.expired, 0u);
}

TEST(SvcService, CorruptResultAndOversizedFrameAreRequeued) {
  const api::sweep sw = grid(4);
  const std::vector<api::cell_summary> ref = reference(sw);
  const std::size_t total = sw.cells.size() * sw.replications;

  coordinator_options opts;
  opts.lease_items = total / 2;
  opts.steal = false;
  opts.deadline_s = 120;
  coordinator coord{sw, opts};
  auto served = serve(coord);

  fake_worker corrupt{coord.port()};
  fake_worker oversized{coord.port()};
  const net::message lease = corrupt.take_lease();
  const net::message held = oversized.take_lease();
  const api::engine engine;

  // A truncated aggregate for a live lease: refused, not folded.
  net::message truncated = corrupt.result_for(engine, lease);
  truncated.body.resize(truncated.body.size() / 2);
  corrupt.send(std::move(truncated));
  const net::message nack = corrupt.recv();
  ASSERT_EQ(nack.type, "ack");
  EXPECT_EQ(nack.str("lease"), lease.str("lease"));
  EXPECT_EQ(nack.u64("ok"), 0u);

  // The connection stays up, and the refused range is back in play: the
  // same worker is granted it again and this time folds it honestly.
  const net::message again = corrupt.take_lease();
  EXPECT_EQ(again.u64("first"), lease.u64("first"));
  EXPECT_EQ(again.u64("last"), lease.u64("last"));
  corrupt.send(corrupt.result_for(engine, again));
  const net::message ack = corrupt.recv();
  ASSERT_EQ(ack.type, "ack");
  EXPECT_EQ(ack.u64("ok"), 1u);
  corrupt.conn.close();

  // Mid-lease, after an honest heartbeat, the other fake announces a
  // frame past the frame cap. The coordinator must drop it
  // without buffering the promised bytes and re-queue its lease.
  net::message hb = net::make("heartbeat");
  hb.fields["lease"] = held.str("lease");
  hb.fields["epoch"] = held.str("epoch");
  hb.fields["done"] = held.str("first");
  oversized.send(std::move(hb));
  oversized.announce_oversized_frame();
  EXPECT_THROW((void)oversized.recv(), error);  // the coordinator hung up

  auto w = join_fleet(engine, coord.port(), "healthy");
  const dist::shard_aggregate merged = served.get();
  const worker_report report = w.get();

  expect_equivalent(dist::summaries(merged), ref);
  EXPECT_EQ(report.items, held.u64("last") - held.u64("first"));
  const coordinator_counters& c = coord.counters();
  EXPECT_GE(c.results_rejected, 1u);
  EXPECT_GE(c.requeued_disconnect, 1u);
  EXPECT_EQ(c.expired, 0u);
}

TEST(SvcService, LateDialAfterRunIsRefusedAtOnce) {
  const api::sweep sw = grid(2);
  coordinator_options opts;
  opts.deadline_s = 120;
  coordinator coord{sw, opts};
  auto served = serve(coord);
  const api::engine engine;
  auto w = join_fleet(engine, coord.port(), "on-time");
  (void)served.get();
  EXPECT_EQ(w.get().items, sw.cells.size() * sw.replications);

  // run() has returned but the coordinator still exists: its listener is
  // closed, so the dial itself fails instead of waiting in the backlog
  // for a sweep message until io_timeout_ms.
  worker_options late;
  late.port = coord.port();
  late.name = "late";
  late.n_threads = 1;
  late.io_timeout_ms = 3000;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    (void)run_worker(engine, late);
    ADD_FAILURE() << "a late worker joined a finished campaign";
  } catch (const error& e) {
    EXPECT_NE(std::string{e.what()}.find("refused"), std::string::npos)
        << e.what();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
}

TEST(SvcService, DeadlineEndsTheCampaignForEveryPeer) {
  const api::sweep sw = grid(2);
  const std::size_t total = sw.cells.size() * sw.replications;
  // A manual clock: the deadline can only pass once the fake holds its
  // lease, however slowly the fake connects.
  support::manual_clock clock;
  coordinator_options opts;
  opts.lease_timeout_s = 60;
  opts.deadline_s = 0.3;
  opts.steal = false;
  opts.clock = &clock;
  coordinator coord{sw, opts};
  auto served = serve(coord);

  fake_worker fake{coord.port()};
  (void)fake.take_lease();
  clock.advance(std::chrono::seconds(1));

  // The holder of a live lease hears the end at once, not when the
  // coordinator object is destroyed.
  const auto frame = fake.conn.recv_frame(1000);
  ASSERT_TRUE(frame.has_value()) << "no shutdown within 1 s of the deadline";
  const net::message bye = net::decode(*frame);
  EXPECT_EQ(bye.type, "shutdown");
  EXPECT_EQ(bye.str("reason"), "deadline");

  try {
    (void)served.get();
    ADD_FAILURE() << "run() returned past its deadline";
  } catch (const error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadline"), std::string::npos) << what;
    EXPECT_NE(what.find("0/" + std::to_string(total) + " items folded"),
              std::string::npos)
        << what;
  }
  EXPECT_THROW((void)net::connection::dial("127.0.0.1", coord.port(), 1000),
               error);
}

TEST(SvcService, ForeignProtocolIsRefusedAndCounted) {
  const api::sweep sw = grid(2);
  coordinator_options opts;
  opts.deadline_s = 120;
  coordinator coord{sw, opts};
  auto served = serve(coord);

  // A worker speaking a different protocol version is told so and
  // dropped.
  net::connection raw = net::connection::dial("127.0.0.1", coord.port(), 20000);
  net::message hello = net::make("hello");
  hello.fields["proto"] = std::to_string(net::protocol_version + 1);
  hello.fields["name"] = "future";
  raw.send_frame(net::encode(hello), 20000);
  const auto frame = raw.recv_frame(20000);
  ASSERT_TRUE(frame.has_value());
  const net::message bye = net::decode(*frame);
  EXPECT_EQ(bye.type, "shutdown");
  EXPECT_EQ(bye.str("reason"), "protocol-mismatch");

  const api::engine engine;
  auto w = join_fleet(engine, coord.port(), "current");
  (void)served.get();
  (void)w.get();
  EXPECT_EQ(coord.counters().disconnects, 1u);
  EXPECT_EQ(coord.counters().workers_seen, 1u);
}

/// run_worker against a scripted coordinator that answers the worker's
/// hello with `shutdown reason=<reason>` or, when `after_sweep`, sends a
/// sweep and answers the worker's first `ready` with it.
worker_report scripted_shutdown(const std::string& reason, bool after_sweep) {
  net::listener lst{0};
  const api::engine engine;
  auto w = join_fleet(engine, lst.port(), "scripted");
  net::connection conn = lst.accept();
  const auto expect = [&conn](const std::string& type) {
    const auto frame = conn.recv_frame(20000);
    EXPECT_EQ(frame ? net::decode(*frame).type : "nothing", type);
  };
  expect("hello");
  if (after_sweep) {
    net::message sweep = net::make("sweep");
    sweep.fields["session"] = "1";
    sweep.fields["chunk"] = "1";
    sweep.fields["lease_timeout_ms"] = "30000";
    sweep.fields["telemetry_ms"] = "1000";
    sweep.body = dist::encode_sweep_str(grid(1));
    conn.send_frame(net::encode(sweep), 20000);
    expect("ready");
  }
  net::message bye = net::make("shutdown");
  bye.fields["reason"] = reason;
  conn.send_frame(net::encode(bye), 20000);
  return w.get();
}

TEST(SvcService, ShutdownEndsTheSessionCleanlyOnlyWhenComplete) {
  // `complete` in place of the sweep: accepted just before the campaign
  // completed. Nothing to do, and not an error.
  const worker_report r = scripted_shutdown("complete", false);
  EXPECT_EQ(r.leases, 0u);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.items, 0u);
  EXPECT_EQ(r.trims, 0u);

  // Any other reason, before or after the sweep, fails the worker as the
  // campaign failed, and the error names it.
  for (const auto& [reason, after_sweep] :
       {std::pair{"protocol-mismatch", false}, std::pair{"deadline", true}}) {
    try {
      (void)scripted_shutdown(reason, after_sweep);
      ADD_FAILURE() << "a worker told '" << reason << "' returned";
    } catch (const error& e) {
      EXPECT_NE(std::string{e.what()}.find(
                    "ended the session (" + std::string{reason} + ")"),
                std::string::npos)
          << e.what();
    }
  }
}

/// A clock that reads `base` but first runs `on_read` with the 1-based
/// index of the call. run_worker reads its clock at the start and at the
/// end of every chunk, so read 2k - 1 starts chunk k and read 2k ends it;
/// the heartbeat tests below count on that, as the fleet tests count on
/// support::first_chunk_clock's first read being the first chunk start.
class hooked_clock final : public util::monotonic_clock {
 public:
  hooked_clock(const util::monotonic_clock& base,
               std::function<void(std::size_t)> on_read)
      : base_(base), on_read_(std::move(on_read)) {}

  [[nodiscard]] time_point now() const noexcept override {
    on_read_(++reads_);
    return base_.now();
  }

 private:
  const util::monotonic_clock& base_;
  std::function<void(std::size_t)> on_read_;
  mutable std::atomic<std::size_t> reads_{0};
};

/// What a real worker sent for one lease, and its report.
struct scripted_lease {
  std::vector<net::message> frames;  ///< After `ready`, up to `result`.
  worker_report report;
};

/// One real worker on `clock` against a scripted coordinator (a plain
/// listener): the sweep announces one-item chunks and the given
/// telemetry_ms and lease_timeout_ms, then one lease of the items [0,
/// `items`) of grid(4) is granted and `after_lease` runs. Every frame the
/// worker sends up to its `result` is kept; the lease is then acked and
/// the campaign completed.
scripted_lease run_scripted_lease(
    const util::monotonic_clock& clock, std::size_t items, int telemetry_ms,
    int lease_timeout_ms,
    const std::function<void(net::connection&)>& after_lease = {}) {
  net::listener lst{0};
  const api::engine engine;
  auto w = join_fleet(engine, lst.port(), "scripted", &clock);
  net::connection conn = lst.accept();
  const auto recv = [&conn] {
    const auto frame = conn.recv_frame(20000);
    if (!frame) throw error("scripted coordinator: recv timed out");
    return net::decode(*frame);
  };
  const auto send = [&conn](const net::message& m) {
    conn.send_frame(net::encode(m), 20000);
  };
  EXPECT_EQ(recv().type, "hello");
  net::message sweep = net::make("sweep");
  sweep.fields["session"] = "1";
  sweep.fields["chunk"] = "1";
  sweep.fields["lease_timeout_ms"] = std::to_string(lease_timeout_ms);
  sweep.fields["telemetry_ms"] = std::to_string(telemetry_ms);
  sweep.body = dist::encode_sweep_str(grid(4));
  send(sweep);
  EXPECT_EQ(recv().type, "ready");
  net::message lease = net::make("lease");
  lease.fields["lease"] = "1";
  lease.fields["epoch"] = "1";
  lease.fields["first"] = "0";
  lease.fields["last"] = std::to_string(items);
  send(lease);
  if (after_lease) after_lease(conn);

  scripted_lease out;
  do {
    out.frames.push_back(recv());
  } while (out.frames.back().type != "result");
  net::message ack = net::make("ack");
  ack.fields["lease"] = "1";
  ack.fields["epoch"] = "1";
  ack.fields["ok"] = "1";
  send(ack);
  EXPECT_EQ(recv().type, "ready");
  net::message bye = net::make("shutdown");
  bye.fields["reason"] = "complete";
  send(bye);
  out.report = w.get();
  return out;
}

/// A heartbeat for lease 1 at frontier `done`, carrying a snapshot.
void expect_heartbeat(const net::message& m, std::size_t done) {
  ASSERT_EQ(m.type, "heartbeat");
  EXPECT_EQ(m.u64("lease"), 1u);
  EXPECT_EQ(m.u64("done"), done);
  EXPECT_NO_THROW((void)obs::decode_telemetry_str(m.body));
}

/// The `result` for lease 1 covering [0, last).
void expect_result(const net::message& m, std::size_t last) {
  ASSERT_EQ(m.type, "result");
  const dist::shard_aggregate part = dist::decode_str(m.body);
  EXPECT_EQ(part.first_item, 0u);
  EXPECT_EQ(part.last_item, last);
}

TEST(SvcHeartbeat, FrozenClockLeaseSendsOneHeartbeat) {
  // Sixteen one-item chunks in no time at all: the lease's first chunk
  // heartbeats, and no later one is an interval past it.
  const support::manual_clock frozen;
  const scripted_lease s = run_scripted_lease(frozen, 16, 1000, 30000);
  ASSERT_EQ(s.frames.size(), 2u);
  expect_heartbeat(s.frames[0], 1);
  expect_result(s.frames[1], 16);
  EXPECT_EQ(s.report.items, 16u);
  EXPECT_EQ(s.report.leases, 1u);
}

TEST(SvcHeartbeat, IntervalIsTheShorterOfTelemetryAndAQuarterLeaseTimeout) {
  // (telemetry_ms, lease_timeout_ms) -> interval: the lease timeout rules
  // in the first case, the telemetry cadence in the second.
  for (const auto& [telemetry_ms, lease_timeout_ms, interval_ms] :
       {std::tuple{1000, 2000, 500}, std::tuple{300, 30000, 300}}) {
    SCOPED_TRACE("telemetry_ms=" + std::to_string(telemetry_ms) +
                 " lease_timeout_ms=" + std::to_string(lease_timeout_ms));
    const std::chrono::milliseconds interval{interval_ms};
    const std::chrono::milliseconds tick{1};
    support::manual_clock time;
    // Chunks 2 and 4 end one millisecond short of an interval after the
    // last heartbeat; chunks 3 and 5 end exactly one interval after it.
    const hooked_clock clock{time, [&](std::size_t read) {
                               if (read == 3 || read == 7) {
                                 time.advance(interval - tick);
                               }
                               if (read == 5 || read == 9) time.advance(tick);
                             }};
    const scripted_lease s =
        run_scripted_lease(clock, 16, telemetry_ms, lease_timeout_ms);
    ASSERT_EQ(s.frames.size(), 4u);
    expect_heartbeat(s.frames[0], 1);
    expect_heartbeat(s.frames[1], 3);
    expect_heartbeat(s.frames[2], 5);
    expect_result(s.frames[3], 16);
  }
}

TEST(SvcHeartbeat, TrimIsAnsweredAtTheNextChunkBoundary) {
  // The worker starts its first chunk only once a trim to [0, 4) is on
  // the wire, so it reads that trim after the chunk — with no heartbeat
  // due, the answer does not wait for one.
  std::promise<void> trim_sent;
  std::shared_future<void> sent = trim_sent.get_future().share();
  const support::manual_clock frozen;
  const hooked_clock clock{frozen, [sent](std::size_t read) {
                             if (read == 1) sent.wait();
                           }};
  const scripted_lease s =
      run_scripted_lease(clock, 16, 1000, 30000, [&](net::connection& conn) {
        net::message trim = net::make("trim");
        trim.fields["lease"] = "1";
        trim.fields["epoch"] = "1";
        trim.fields["last"] = "4";
        conn.send_frame(net::encode(trim), 20000);
        trim_sent.set_value();
      });
  ASSERT_EQ(s.frames.size(), 3u);
  expect_heartbeat(s.frames[0], 1);
  EXPECT_EQ(s.frames[1].type, "trimmed");
  EXPECT_EQ(s.frames[1].u64("lease"), 1u);
  EXPECT_EQ(s.frames[1].u64("last"), 4u);
  expect_result(s.frames[2], 4);
  EXPECT_EQ(s.report.items, 4u);
  EXPECT_EQ(s.report.trims, 1u);
}

TEST(SvcHeartbeat, LeaseLongerThanTheTimeoutKeepsItsLease) {
  // One lease of 20 one-item chunks, each an eighth of the lease timeout
  // long on a shared manual clock: the lease runs 2.5 timeouts, and a
  // telemetry interval of an hour would never heartbeat. The worker
  // heartbeats every quarter timeout, every second chunk, instead.
  const api::sweep sw = grid(4);
  const std::vector<api::cell_summary> ref = reference(sw);
  const std::size_t total = sw.cells.size() * sw.replications;
  const std::chrono::milliseconds chunk_time{500};

  // The worker must not run ahead of the coordinator's loop, or a burst
  // of chunks could move the clock past a deadline before the
  // coordinator has read the heartbeat already in its socket. The
  // coordinator reads its clock at the top of each pass, before it sleeps
  // and when it wakes, so four reads after a frame arrived mean the frame
  // has been handled. Before the clock moves into chunk k, four reads
  // have passed since chunk k - 4 started, so every heartbeat sent before
  // that has been handled; the last of them, from chunk k - 6 or later,
  // set a deadline past chunk k + 2. (Each heartbeat wakes the
  // coordinator for three reads, so the wait is short.)
  support::manual_clock time;
  std::atomic<std::size_t> coordinator_reads{0};
  const hooked_clock coordinator_clock{time, [&](std::size_t) {
                                         ++coordinator_reads;
                                         coordinator_reads.notify_all();
                                       }};
  std::vector<std::size_t> reads_at_start;  // per chunk; worker thread only
  const hooked_clock worker_clock{time, [&](std::size_t read) {
    if (read % 2 == 0) return;  // a chunk end
    if (reads_at_start.size() >= 4) {
      const std::size_t target = reads_at_start[reads_at_start.size() - 4] + 4;
      for (std::size_t seen = coordinator_reads.load(); seen < target;
           seen = coordinator_reads.load()) {
        coordinator_reads.wait(seen);
      }
    }
    reads_at_start.push_back(coordinator_reads.load());
    time.advance(chunk_time);
  }};

  coordinator_options opts;
  opts.lease_items = total;
  opts.chunk_items = 1;
  opts.steal = false;
  opts.lease_timeout_s = 4;
  opts.telemetry_interval_s = 3600;
  opts.deadline_s = 20;  // on the manual clock; the lease takes 10 s
  opts.clock = &coordinator_clock;
  coordinator coord{sw, opts};
  auto served = serve(coord);
  const api::engine engine;
  auto w = join_fleet(engine, coord.port(), "long", &worker_clock);
  const dist::shard_aggregate merged = served.get();
  const worker_report r = w.get();

  EXPECT_GT(chunk_time * total, std::chrono::seconds(4) * 2);
  expect_equivalent(dist::summaries(merged), ref);
  EXPECT_EQ(r.items, total);
  EXPECT_EQ(r.leases, 1u);
  const coordinator_counters& c = coord.counters();
  EXPECT_EQ(c.expired, 0u);
  EXPECT_EQ(c.leases_granted, 1u);
  EXPECT_EQ(c.results_accepted, 1u);
}

TEST(SvcNet, MessageRoundTripAndVersionGate) {
  net::message m = net::make("lease");
  m.fields["lease"] = "7";
  m.fields["epoch"] = "9";
  m.fields["first"] = "0";
  m.fields["last"] = "42";
  m.body = "payload\nwith lines\n";
  const net::message back = net::decode(net::encode(m));
  EXPECT_EQ(back.type, "lease");
  EXPECT_EQ(back.u64("lease"), 7u);
  EXPECT_EQ(back.u64("last"), 42u);
  EXPECT_EQ(back.body, m.body);
  EXPECT_FALSE(back.has("session"));
  EXPECT_THROW((void)back.str("session"), error);

  // Foreign protocol versions are refused outright, never half-parsed.
  EXPECT_THROW((void)net::decode("bsched-msg v2 lease\n"), error);
  EXPECT_THROW((void)net::decode("not a frame\n"), error);
  EXPECT_THROW((void)net::decode("bsched-msg v1 lease k v\n"), error);

  // Header values are tokens; bulky payloads must use the body.
  net::message bad = net::make("result");
  bad.fields["note"] = "two words";
  EXPECT_THROW((void)net::encode(bad), error);
}

TEST(SvcNet, DecodeRejectsHostileInputWithTypedErrors) {
  // Whatever bytes a hostile peer puts in a frame, decode must either
  // parse them or throw bsched::error — never a different exception
  // type, never a read past the token, never an error message that
  // amplifies the attacker's payload.

  // Truncated headers, at every interesting prefix length.
  for (const std::string_view frame :
       {std::string_view{""}, std::string_view{"b"},
        std::string_view{"bsched-msg"}, std::string_view{"bsched-msg v1"},
        std::string_view{"bsched-msg v1\n"},
        std::string_view{"bsched-msg v1 \n"}}) {
    EXPECT_THROW((void)net::decode(frame), error) << '"' << frame << '"';
  }

  // Oversized header tokens: a single k=v pair approaching the frame
  // cap must be refused at the header-size limit, not turned into a
  // 100 kB map key (or echoed back in the error text).
  const std::string huge_header =
      "bsched-msg v1 t " + std::string(100 * 1024, 'k') + "=v\n";
  try {
    (void)net::decode(huge_header);
    FAIL() << "oversized header accepted";
  } catch (const error& e) {
    EXPECT_LT(std::string{e.what()}.size(), 512u);
  }

  // Embedded NULs and other control bytes never appear in a valid
  // header; all three positions (type, key, value) must be rejected.
  using namespace std::literals;
  EXPECT_THROW((void)net::decode("bsched-msg v1 ty\0pe k=v\n"sv), error);
  EXPECT_THROW((void)net::decode("bsched-msg v1 type k\0ey=v\n"sv), error);
  EXPECT_THROW((void)net::decode("bsched-msg v1 type k=v\0\n"sv), error);
  EXPECT_THROW((void)net::decode("bsched-msg v1 ty\rpe\n"), error);
  EXPECT_THROW((void)net::decode("bsched-msg v1 ty\tpe\n"), error);
  // ... and encode refuses to produce them in the first place.
  net::message ctl = net::make("type");
  ctl.fields["k"] = "a\0b"s;
  EXPECT_THROW((void)net::encode(ctl), error);

  // Non-UTF8 bytes >= 0x80 are opaque data, not hostility: they
  // round-trip (worker names may be UTF-8, which decodes bytewise).
  net::message m8 = net::make("t\x9cype");
  m8.fields["k\x80y"] = "v\xff";
  const net::message back = net::decode(net::encode(m8));
  EXPECT_EQ(back.type, m8.type);
  EXPECT_EQ(back.str("k\x80y"), "v\xff");

  // NUL bytes in the *body* stay legal — shard payloads are opaque.
  net::message with_body = net::make("result");
  with_body.body = "a\0b"s;
  EXPECT_EQ(net::decode(net::encode(with_body)).body, "a\0b"s);

  // Numeric fields overflowing u64 throw bsched::error (std::from_chars
  // range handling), not std::out_of_range.
  const net::message big =
      net::decode("bsched-msg v1 t n=99999999999999999999999999\n");
  EXPECT_THROW((void)big.u64("n"), error);
  EXPECT_THROW((void)net::decode("bsched-msg v1 t =v\n"), error);
}

TEST(SvcNet, DecodeRefusesWhatEncodeRefuses) {
  // A type holding '=' is not a header token: encode refuses to write it,
  // so decode refuses to read it rather than hand back a message that
  // cannot be re-sent.
  EXPECT_THROW((void)net::encode(net::make("a=b")), error);
  EXPECT_THROW((void)net::decode("bsched-msg v1 a=b k=v\n"), error);
  // Doubled spaces between fields stay tolerated.
  const net::message m = net::decode("bsched-msg v1 t  k=v\n");
  EXPECT_EQ(m.str("k"), "v");
  EXPECT_EQ(net::decode(net::encode(m)).fields, m.fields);
}

TEST(SvcNet, LoopbackFramesSurviveFragmentationAndTimeouts) {
  net::listener lst{0};
  ASSERT_GT(lst.port(), 0);
  auto client = std::async(std::launch::async, [port = lst.port()] {
    net::connection c = net::connection::dial("127.0.0.1", port, 5000);
    c.send_frame("ping", 5000);
    return c.recv_frame(5000);
  });
  net::connection server = lst.accept();
  const auto ping = server.recv_frame(5000);
  ASSERT_TRUE(ping.has_value());
  EXPECT_EQ(*ping, "ping");
  // No traffic pending (the client is blocked awaiting our reply): a
  // poll-style receive times out with nullopt rather than throwing.
  EXPECT_FALSE(server.recv_frame(0).has_value());
  EXPECT_FALSE(server.recv_frame(50).has_value());

  // A large frame exercises partial sends/reads across the loopback
  // buffers; it must arrive intact.
  const std::string big(4u << 20, 'x');
  server.send_frame(big, 10000);
  const auto got = client.get();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), big.size());
  EXPECT_EQ(*got, big);

  // The client side is gone now; a read on a closed peer is an error,
  // not a timeout ("slow" and "gone" stay distinguishable).
  EXPECT_THROW((void)server.recv_frame(500), error);
}

}  // namespace
}  // namespace bsched::svc
