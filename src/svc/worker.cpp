#include "svc/worker.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <string>
#include <utility>

#include "dist/codec.hpp"
#include "dist/shard.hpp"
#include "net/message.hpp"
#include "net/socket.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "util/error.hpp"

namespace bsched::svc {

namespace {

/// How long connecting to the coordinator may take before the worker
/// gives up.
constexpr int connect_timeout_ms = 5000;

struct session_ctx {
  net::connection conn;
  std::uint64_t session = 0;
  std::size_t chunk = 1;
  /// How old the last heartbeat may get before a chunk sends the next:
  /// min(telemetry_ms, lease_timeout_ms / 4) from the sweep message, so
  /// the coordinator's telemetry view lags by at most one interval and a
  /// lease hears from its worker four times per lease timeout.
  util::monotonic_clock::duration heartbeat_every{};
  /// End of the chunk that sent the last heartbeat.
  util::monotonic_clock::time_point heartbeat_at{};
  int io_timeout_ms = 0;
  std::string name;
  std::ostream* log_stream = nullptr;
  const util::monotonic_clock* clk = nullptr;

  void log(const std::string& line) const {
    if (log_stream != nullptr) {
      *log_stream << "worker " << name << ": " << line << '\n';
    }
  }

  void send(net::message m) {
    m.fields["session"] = std::to_string(session);
    conn.send_frame(net::encode(m), io_timeout_ms);
  }

  [[nodiscard]] net::message recv(const std::string& waiting_for) {
    auto frame = conn.recv_frame(io_timeout_ms);
    require(frame.has_value(), "svc: worker timed out waiting for " +
                                   waiting_for + " (" +
                                   std::to_string(io_timeout_ms) + " ms)");
    return net::decode(*frame);
  }

  /// A `shutdown` ends the session: normally for reason=complete, with a
  /// bsched::error naming any other reason (deadline, protocol-mismatch).
  void shut_down(const net::message& m) const {
    const std::string why = m.has("reason") ? m.str("reason") : "no reason";
    log("shutdown (" + why + ")");
    require(why == "complete", "svc: coordinator ended the session (" + why +
                                   ")");
  }
};

/// One lease's execution: chunked run_shard calls appended to one lease
/// aggregate (`blank`, the session's empty aggregate, copied), with trim
/// handling after every chunk and a heartbeat after the first chunk and
/// then once per heartbeat interval. Returns false when the campaign
/// completed mid-lease (nothing was sent).
bool run_lease(const api::engine& engine, session_ctx& ctx, dist::shard& sh,
               const dist::shard_aggregate& blank, const net::message& lease,
               std::size_t n_threads, worker_report& report) {
  const std::uint64_t id = lease.u64("lease");
  const std::uint64_t epoch = lease.u64("epoch");
  const std::size_t first = static_cast<std::size_t>(lease.u64("first"));
  std::size_t last = static_cast<std::size_t>(lease.u64("last"));
  require(first < last, "svc: coordinator granted an empty lease [" +
                            std::to_string(first) + ", " +
                            std::to_string(last) + ")");
  ctx.log("lease " + std::to_string(id) + " [" + std::to_string(first) +
          ", " + std::to_string(last) + ")");

  // Chunks append item by item in stream order, so the lease result is
  // exactly the aggregate of one contiguous run over [first, last); its
  // last_item is the worker's frontier.
  dist::shard_aggregate agg = blank;
  agg.first_item = first;
  agg.last_item = first;
  while (agg.last_item < last) {
    sh.first = agg.last_item;
    sh.last = std::min(sh.first + ctx.chunk, last);
    const auto chunk_start = ctx.clk->now();
    dist::run_shard(engine, sh, agg, n_threads);
    const auto chunk_end = ctx.clk->now();
    BSCHED_HISTOGRAM_OBSERVE(
        "svc.worker.chunk_seconds",
        std::chrono::duration<double>(chunk_end - chunk_start).count(),
        0.001, 0.01, 0.1, 1.0, 10.0, 60.0);
    BSCHED_COUNTER_ADD("svc.worker.items_total", sh.last - sh.first);
    report.items += sh.last - sh.first;

    // A heartbeat keeps the lease alive and carries the frontier plus the
    // worker's metrics snapshot, from which the coordinator folds its
    // fleet-wide telemetry view. It goes out on the lease's first chunk
    // and then once per interval, not per chunk: steals learn the true
    // frontier from the trim handshake below, whatever the last
    // heartbeat said.
    if (sh.first == first ||
        chunk_end - ctx.heartbeat_at >= ctx.heartbeat_every) {
      net::message hb = net::make("heartbeat");
      hb.fields["lease"] = std::to_string(id);
      hb.fields["epoch"] = std::to_string(epoch);
      hb.fields["done"] = std::to_string(agg.last_item);
      hb.body = obs::encode_telemetry_str(obs::registry::global().scrape());
      ctx.send(std::move(hb));
      ctx.heartbeat_at = chunk_end;
    }

    // Drain whatever the coordinator pushed meanwhile — work-steal
    // proposals, or the end of the campaign — after every chunk, so a
    // trim is answered at chunk resolution.
    while (auto frame = ctx.conn.recv_frame(0)) {
      const net::message m = net::decode(*frame);
      if (m.type == "shutdown") {
        ctx.shut_down(m);
        return false;
      }
      if (m.type != "trim" || m.u64("lease") != id ||
          m.u64("epoch") != epoch) {
        continue;  // trim for a lease this worker no longer runs
      }
      // Honor the proposal, but never cut below the frontier — those
      // items are already computed and belong to this lease's result.
      const std::size_t cut = std::clamp(
          static_cast<std::size_t>(m.u64("last")), agg.last_item, last);
      net::message trimmed = net::make("trimmed");
      trimmed.fields["lease"] = std::to_string(id);
      trimmed.fields["epoch"] = std::to_string(epoch);
      trimmed.fields["last"] = std::to_string(cut);
      ctx.send(std::move(trimmed));
      if (cut < last) {
        ctx.log("lease " + std::to_string(id) + " trimmed to [" +
                std::to_string(first) + ", " + std::to_string(cut) + ")");
        last = cut;
        ++report.trims;
      }
    }
  }

  net::message result = net::make("result");
  result.fields["lease"] = std::to_string(id);
  result.fields["epoch"] = std::to_string(epoch);
  result.body = dist::encode_str(agg);
  ctx.send(std::move(result));

  // The ack may be preceded by a trim that raced with the result; a
  // finished lease answers with its end, making the steal empty.
  while (true) {
    const net::message m = ctx.recv("result ack");
    if (m.type == "shutdown") {
      ctx.shut_down(m);
      return false;
    }
    if (m.type == "trim") {
      if (m.u64("lease") == id && m.u64("epoch") == epoch) {
        net::message trimmed = net::make("trimmed");
        trimmed.fields["lease"] = std::to_string(id);
        trimmed.fields["epoch"] = std::to_string(epoch);
        trimmed.fields["last"] = std::to_string(last);
        ctx.send(std::move(trimmed));
      }
      continue;
    }
    if (m.type == "ack" && m.u64("lease") == id && m.u64("epoch") == epoch) {
      if (m.u64("ok") == 1) {
        ++report.leases;
      } else {
        ++report.rejected;
        ctx.log("result for lease " + std::to_string(id) +
                " rejected (lease expired or reassigned); discarding");
      }
      return true;
    }
    throw error("svc: worker expected ack for lease " + std::to_string(id) +
                ", got '" + m.type + "'");
  }
}

}  // namespace

worker_report run_worker(const api::engine& engine,
                         const worker_options& opts) {
  session_ctx ctx;
  ctx.conn = net::connection::dial(opts.host, opts.port, connect_timeout_ms);
  ctx.io_timeout_ms = opts.io_timeout_ms;
  ctx.name = opts.name;
  ctx.log_stream = opts.log;
  ctx.clk = opts.clock != nullptr ? opts.clock
                                  : &util::monotonic_clock::system();

  net::message hello = net::make("hello");
  hello.fields["proto"] = std::to_string(net::protocol_version);
  hello.fields["name"] = opts.name;
  ctx.conn.send_frame(net::encode(hello), opts.io_timeout_ms);

  const net::message sweep_msg = ctx.recv("the sweep definition");
  if (sweep_msg.type == "shutdown") {
    ctx.shut_down(sweep_msg);  // joined a campaign that just completed
    return {};
  }
  require(sweep_msg.type == "sweep",
          "svc: worker expected the sweep definition, got '" +
              sweep_msg.type + "'");
  ctx.session = sweep_msg.u64("session");
  ctx.chunk = std::max<std::size_t>(
      1, static_cast<std::size_t>(sweep_msg.u64("chunk")));
  ctx.heartbeat_every = std::chrono::milliseconds(
      static_cast<long long>(std::min(sweep_msg.u64("telemetry_ms"),
                                      sweep_msg.u64("lease_timeout_ms") / 4)));

  // The whole grid arrives over the wire; nothing is compiled in. Its
  // empty aggregate (shape and cell descriptors) is built once and
  // copied for every lease.
  dist::shard sh;
  sh.sweep = dist::decode_sweep_str(sweep_msg.body);
  const dist::shard_aggregate blank = dist::empty_aggregate(sh.sweep);
  ctx.log("joined session " + std::to_string(ctx.session) + ": " +
          std::to_string(sh.sweep.cells.size()) + " cell(s) x " +
          std::to_string(sh.sweep.replications) + " replication(s)");

  worker_report report;
  while (true) {
    ctx.send(net::make("ready"));
    net::message m = ctx.recv("a lease");
    if (m.type == "shutdown") {
      ctx.shut_down(m);
      break;
    }
    if (m.type == "trim" || m.type == "ack") continue;  // stale traffic
    require(m.type == "lease", "svc: worker expected a lease, got '" +
                                   m.type + "'");
    if (!run_lease(engine, ctx, sh, blank, m, opts.n_threads, report)) break;
  }
  return report;
}

}  // namespace bsched::svc
