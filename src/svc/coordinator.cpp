#include "svc/coordinator.hpp"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "dist/codec.hpp"
#include "net/message.hpp"
#include "net/socket.hpp"
#include "obs/telemetry.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/streams.hpp"

namespace bsched::svc {

namespace {

using clock = util::monotonic_clock;  // time_point source is injectable

/// Worker names embed into metric names; anything outside the metric
/// charset becomes '_'.
std::string metric_safe(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == ':' || c == '-';
    if (!ok) c = '_';
  }
  return out.empty() ? std::string{"anonymous"} : out;
}

struct range {
  std::size_t first = 0;
  std::size_t last = 0;
  [[nodiscard]] std::size_t size() const noexcept { return last - first; }
};

struct lease_state {
  std::uint64_t id = 0;
  std::uint64_t epoch = 0;
  std::size_t first = 0;
  std::size_t last = 0;
  int worker_fd = -1;
  clock::time_point deadline;
  /// Worker's reported global frontier: items [first, frontier) are done
  /// on its side. Only advisory (results arrive at lease end) — it
  /// steers work-steal cuts.
  std::size_t frontier = 0;
  bool trim_outstanding = false;
};

struct peer_state {
  net::connection conn;
  std::string name;
  bool greeted = false;  ///< hello handled, sweep sent.
  bool idle = false;     ///< ready received, no lease granted yet.
  std::vector<std::uint64_t> leases;
};

}  // namespace

struct coordinator::impl {
  api::sweep sw;
  coordinator_options opts;
  net::listener lst;
  coordinator_counters counters;
  const util::monotonic_clock* clk = nullptr;
  clock::time_point started;  ///< run() entry; uptime_s gauge base.

  /// Items of accepted lease results, keyed by metric_safe worker name
  /// (metric names are unique on the wire) — counted here, not
  /// worker-side, so the per-worker totals tile the stream exactly
  /// (rejected/expired leases contribute nothing) and sum to the folded
  /// item count.
  std::map<std::string, std::uint64_t> accepted_items;
  /// Last heartbeat-piggybacked snapshot per worker name (last wins).
  std::map<std::string, obs::snapshot> worker_snaps;
  std::uint64_t telemetry_decode_errors = 0;

  std::size_t total_items = 0;
  std::size_t lease_items = 0;
  int send_timeout_ms = 0;
  std::uint64_t session = 0;
  std::string sweep_body;

  dist::stream_merger merger;
  std::deque<range> pending;
  std::map<int, peer_state> peers;  ///< Keyed by fd (stable, unique).
  std::map<std::uint64_t, lease_state> active;
  std::uint64_t next_lease = 0;
  std::uint64_t next_epoch = 0;

  impl(api::sweep sweep_in, coordinator_options opts_in)
      : sw(std::move(sweep_in)),
        opts(std::move(opts_in)),
        lst(opts.port, opts.loopback_only) {
    clk = opts.clock != nullptr ? opts.clock
                                : &util::monotonic_clock::system();
    started = clk->now();
    total_items = sw.cells.size() * sw.replications;
    require(total_items > 0, "svc: coordinator needs a non-empty sweep "
                             "(cells x replications == 0)");
    require(opts.chunk_items > 0, "svc: chunk_items must be positive");
    require(opts.lease_timeout_s > 0, "svc: lease_timeout_s must be positive");
    const std::size_t leases = std::max<std::size_t>(1, opts.workers_expected) *
                               coordinator_options::leases_per_worker;
    lease_items = opts.lease_items != 0 ? opts.lease_items
                                        : (total_items + leases - 1) / leases;
    send_timeout_ms = std::max(1000, lease_timeout_ms());
    // The session nonce fences this campaign off from workers of an
    // earlier run that happen to reconnect to a reused port: the seed's
    // streams::service child, perturbed by wall-clock startup time.
    std::uint64_t state =
        sw.seed ^ static_cast<std::uint64_t>(
                      std::chrono::system_clock::now().time_since_epoch()
                          .count());
    session = rng::derive(splitmix64(state), streams::service);
    sweep_body = dist::encode_sweep_str(sw);
    pending.push_back(range{0, total_items});
  }

  [[nodiscard]] int lease_timeout_ms() const {
    return static_cast<int>(opts.lease_timeout_s * 1000.0);
  }

  /// The telemetry cadence: on_telemetry emissions, and how stale a
  /// worker's heartbeat-piggybacked snapshot may get (announced to
  /// workers as the sweep message's telemetry_ms).
  [[nodiscard]] std::chrono::milliseconds telemetry_step() const {
    return std::chrono::milliseconds(static_cast<long long>(
        std::max(0.001, opts.telemetry_interval_s) * 1000.0));
  }

  void log(const std::string& line) const {
    if (opts.log != nullptr) *opts.log << "coordinator: " << line << '\n';
  }

  /// The fleet-wide telemetry view on_telemetry receives: coordinator
  /// counters/gauges, the coordinator's own per-worker accepted-item
  /// accounting (svc.worker.<name>.items_total — these sum exactly to the
  /// folded item count), and each worker's last heartbeat-piggybacked
  /// snapshot merged in under "worker.<name>.".
  [[nodiscard]] obs::snapshot telemetry() const {
    obs::snapshot snap;
    const auto counter = [&](const char* name, std::uint64_t v) {
      snap.counters.push_back(obs::counter_sample{name, v});
    };
    counter("svc.coordinator.workers_seen_total", counters.workers_seen);
    counter("svc.coordinator.leases_granted_total", counters.leases_granted);
    counter("svc.coordinator.results_accepted_total",
            counters.results_accepted);
    counter("svc.coordinator.results_rejected_total",
            counters.results_rejected);
    counter("svc.coordinator.leases_expired_total", counters.expired);
    counter("svc.coordinator.requeued_disconnect_total",
            counters.requeued_disconnect);
    counter("svc.coordinator.steals_total", counters.steals);
    counter("svc.coordinator.disconnects_total", counters.disconnects);
    counter("svc.coordinator.telemetry_decode_errors_total",
            telemetry_decode_errors);
    const auto gauge = [&](const char* name, double v) {
      snap.gauges.push_back(obs::gauge_sample{name, v});
    };
    gauge("svc.coordinator.total_items", static_cast<double>(total_items));
    gauge("svc.coordinator.folded_items",
          static_cast<double>(merger.next()));
    gauge("svc.coordinator.pending_leases",
          static_cast<double>(pending.size()));
    gauge("svc.coordinator.active_leases", static_cast<double>(active.size()));
    gauge("svc.coordinator.workers", static_cast<double>(peers.size()));
    gauge("svc.coordinator.uptime_s",
          std::chrono::duration<double>(clk->now() - started).count());
    // Coordinator-side accepted-item accounting: these tile the stream
    // exactly, so summing them across workers reproduces the folded
    // item count (the test_obs fleet assertion).
    for (const auto& [name, items] : accepted_items) {
      snap.counters.push_back(
          obs::counter_sample{"svc.worker." + name + ".items_total", items});
    }
    // Worker self-reported snapshots, namespaced per worker.
    for (const auto& [name, ws] : worker_snaps) {
      snap.merge(ws.prefixed("worker." + metric_safe(name) + "."));
    }
    return snap;
  }

  void requeue(std::size_t first, std::size_t last) {
    if (first >= last) return;
    // Front of the queue: re-executing the gap first advances the merge
    // frontier fastest.
    pending.push_front(range{first, last});
  }

  /// Forgets a lease (completion, expiry, disconnect, rejection). Any
  /// later message naming its (id, epoch) no longer resolves — that is
  /// the duplicate/stale-result guard.
  void retire(std::uint64_t id) {
    const auto it = active.find(id);
    if (it == active.end()) return;
    const auto peer = peers.find(it->second.worker_fd);
    if (peer != peers.end()) {
      auto& owned = peer->second.leases;
      owned.erase(std::remove(owned.begin(), owned.end(), id), owned.end());
    }
    active.erase(it);
  }

  void drop_peer(int fd, const std::string& why) {
    const auto it = peers.find(fd);
    if (it == peers.end()) return;
    std::size_t requeued = 0;
    const std::vector<std::uint64_t> owned = it->second.leases;
    for (const std::uint64_t id : owned) {
      const auto lease = active.find(id);
      if (lease != active.end()) {
        requeue(lease->second.first, lease->second.last);
        ++requeued;
        active.erase(lease);
      }
    }
    counters.requeued_disconnect += requeued;
    ++counters.disconnects;
    log("worker '" + it->second.name + "' gone (" + why + "), " +
        std::to_string(requeued) + " lease(s) re-queued");
    peers.erase(it);
  }

  /// Best-effort send; a peer that cannot take the frame is dropped.
  bool send(int fd, const net::message& m) {
    const auto it = peers.find(fd);
    if (it == peers.end()) return false;
    try {
      it->second.conn.send_frame(net::encode(m), send_timeout_ms);
      return true;
    } catch (const error& e) {
      drop_peer(fd, e.what());
      return false;
    }
  }

  void expire_leases(clock::time_point now) {
    std::vector<std::uint64_t> expired;
    for (const auto& [id, ls] : active) {
      if (ls.deadline <= now) expired.push_back(id);
    }
    for (const std::uint64_t id : expired) {
      const lease_state ls = active.at(id);
      log("lease " + std::to_string(id) + " [" + std::to_string(ls.first) +
          ", " + std::to_string(ls.last) + ") expired; re-queueing");
      requeue(ls.first, ls.last);
      retire(id);
      ++counters.expired;
    }
  }

  void grant_leases(clock::time_point now) {
    // Snapshot the candidate fds: send() may drop a peer mid-loop, and
    // erasing from `peers` would invalidate a live range-for iterator.
    std::vector<int> idle_fds;
    for (const auto& [fd, peer] : peers) {
      if (peer.greeted && peer.idle) idle_fds.push_back(fd);
    }
    for (const int fd : idle_fds) {
      if (pending.empty()) break;
      const auto it = peers.find(fd);
      if (it == peers.end()) continue;
      peer_state& peer = it->second;
      range r = pending.front();
      pending.pop_front();
      const std::size_t take = std::min(lease_items, r.size());
      const range granted{r.first, r.first + take};
      if (r.first + take < r.last) {
        pending.push_front(range{r.first + take, r.last});
      }
      lease_state ls;
      ls.id = ++next_lease;
      ls.epoch = ++next_epoch;
      ls.first = granted.first;
      ls.last = granted.last;
      ls.worker_fd = fd;
      ls.frontier = granted.first;
      ls.deadline = now + std::chrono::milliseconds(lease_timeout_ms());
      net::message m = net::make("lease");
      m.fields["lease"] = std::to_string(ls.id);
      m.fields["epoch"] = std::to_string(ls.epoch);
      m.fields["first"] = std::to_string(ls.first);
      m.fields["last"] = std::to_string(ls.last);
      peer.idle = false;
      active.emplace(ls.id, ls);
      peer.leases.push_back(ls.id);
      ++counters.leases_granted;
      log("lease " + std::to_string(ls.id) + " [" +
          std::to_string(ls.first) + ", " + std::to_string(ls.last) +
          ") -> worker '" + peer.name + "'");
      if (!send(fd, m)) continue;  // drop_peer already re-queued it
    }
  }

  void propose_steal() {
    if (!opts.steal || !pending.empty()) return;
    bool idle_worker = false;
    for (const auto& [fd, peer] : peers) {
      (void)fd;
      if (peer.greeted && peer.idle) {
        idle_worker = true;
        break;
      }
    }
    if (!idle_worker) return;
    // The straggler: the active lease with the most items left beyond
    // its reported frontier.
    lease_state* victim = nullptr;
    std::size_t best_left = 0;
    for (auto& [id, ls] : active) {
      (void)id;
      if (ls.trim_outstanding) continue;
      const std::size_t done = std::max(ls.frontier, ls.first);
      const std::size_t left = ls.last > done ? ls.last - done : 0;
      if (left > best_left) {
        best_left = left;
        victim = &ls;
      }
    }
    if (victim == nullptr) return;
    const std::size_t done = std::max(victim->frontier, victim->first);
    // Cut mid-way through the remainder, rounded up to the worker's
    // chunk grid (anchored at the lease start) so the proposal lands on
    // a boundary the worker can honor exactly.
    std::size_t cut = done + best_left / 2;
    const std::size_t rel = cut - victim->first;
    cut = victim->first +
          ((rel + opts.chunk_items - 1) / opts.chunk_items) * opts.chunk_items;
    cut = std::min(cut, victim->last);
    // Never steal fewer than two chunks.
    if (victim->last - cut < 2 * opts.chunk_items) return;
    net::message m = net::make("trim");
    m.fields["lease"] = std::to_string(victim->id);
    m.fields["epoch"] = std::to_string(victim->epoch);
    m.fields["last"] = std::to_string(cut);
    victim->trim_outstanding = true;
    // Logged after the send: when the line shows, the frame is on the wire.
    if (send(victim->worker_fd, m)) {
      log("proposing trim of lease " + m.str("lease") + " at " +
          std::to_string(cut));
    }
  }

  /// Looks up the lease a worker message names; returns nullptr (stale)
  /// when the id is unknown, the epoch mismatches, or the message comes
  /// from a connection that does not own the lease.
  lease_state* resolve(int fd, const net::message& m) {
    const auto it = active.find(m.u64("lease"));
    if (it == active.end()) return nullptr;
    lease_state& ls = it->second;
    if (ls.epoch != m.u64("epoch") || ls.worker_fd != fd) return nullptr;
    return &ls;
  }

  void handle(int fd, const net::message& m, clock::time_point now) {
    peer_state& peer = peers.at(fd);
    if (m.type == "hello") {
      if (m.u64("proto") != net::protocol_version) {
        net::message bye = net::make("shutdown");
        bye.fields["reason"] = "protocol-mismatch";
        (void)send(fd, bye);
        drop_peer(fd, "speaks protocol v" + m.str("proto"));
        return;
      }
      peer.greeted = true;
      peer.name = m.has("name") ? m.str("name") : "anonymous";
      ++counters.workers_seen;
      net::message sweep_msg = net::make("sweep");
      sweep_msg.fields["session"] = std::to_string(session);
      sweep_msg.fields["chunk"] = std::to_string(opts.chunk_items);
      sweep_msg.fields["lease_timeout_ms"] = std::to_string(lease_timeout_ms());
      sweep_msg.fields["telemetry_ms"] =
          std::to_string(telemetry_step().count());
      sweep_msg.body = sweep_body;
      log("worker '" + peer.name + "' connected");
      (void)send(fd, sweep_msg);
      return;
    }
    require(peer.greeted,
            "svc: worker sent '" + m.type + "' before hello");
    if (m.u64("session") != session) {
      // A worker of some other campaign; it gets nothing from us.
      drop_peer(fd, "foreign session");
      return;
    }
    if (m.type == "ready") {
      peer.idle = true;
    } else if (m.type == "heartbeat") {
      if (!m.body.empty()) {
        // Piggybacked "bsched-telemetry v1" snapshot; a malformed body
        // is counted, not fatal.
        try {
          worker_snaps[peer.name] = obs::decode_telemetry_str(m.body);
        } catch (const error&) {
          ++telemetry_decode_errors;
        }
      }
      lease_state* ls = resolve(fd, m);
      if (ls == nullptr) return;  // stale — expired or reassigned
      const std::size_t done = static_cast<std::size_t>(m.u64("done"));
      ls->frontier = std::clamp(done, ls->first, ls->last);
      ls->deadline = now + std::chrono::milliseconds(lease_timeout_ms());
    } else if (m.type == "trimmed") {
      lease_state* ls = resolve(fd, m);
      if (ls == nullptr) return;  // lease expired meanwhile; fully re-queued
      ls->trim_outstanding = false;
      ls->deadline = now + std::chrono::milliseconds(lease_timeout_ms());
      const std::size_t cut = std::clamp(
          static_cast<std::size_t>(m.u64("last")), ls->first, ls->last);
      if (cut < ls->last) {
        requeue(cut, ls->last);
        log("lease " + std::to_string(ls->id) + " trimmed to [" +
            std::to_string(ls->first) + ", " + std::to_string(cut) + "); [" +
            std::to_string(cut) + ", " + std::to_string(ls->last) +
            ") re-queued");
        ls->last = cut;
        ls->frontier = std::min(ls->frontier, cut);
        ++counters.steals;
      }
    } else if (m.type == "result") {
      const std::uint64_t id = m.u64("lease");
      const std::uint64_t epoch = m.u64("epoch");
      lease_state* ls = resolve(fd, m);
      bool ok = false;
      std::string why;
      if (ls == nullptr) {
        why = "stale lease (expired, reassigned or already folded)";
      } else {
        try {
          dist::shard_aggregate part = dist::decode_str(m.body);
          require(part.first_item == ls->first && part.last_item == ls->last,
                  "svc: result covers [" + std::to_string(part.first_item) +
                      ", " + std::to_string(part.last_item) +
                      ") but the lease is [" + std::to_string(ls->first) +
                      ", " + std::to_string(ls->last) + ")");
          merger.add(std::move(part));
          accepted_items[metric_safe(peer.name)] += ls->last - ls->first;
          ok = true;
        } catch (const error& e) {
          why = e.what();
          // The range was not folded; put it back in play.
          requeue(ls->first, ls->last);
        }
        retire(id);
      }
      if (ok) {
        ++counters.results_accepted;
        log("lease " + std::to_string(id) + " folded (" +
            std::to_string(merger.next()) + "/" +
            std::to_string(total_items) + " items contiguous)");
      } else {
        ++counters.results_rejected;
        log("result for lease " + std::to_string(id) + " epoch " +
            std::to_string(epoch) + " rejected: " + why);
      }
      net::message ack = net::make("ack");
      ack.fields["lease"] = std::to_string(id);
      ack.fields["epoch"] = std::to_string(epoch);
      ack.fields["ok"] = ok ? "1" : "0";
      (void)send(fd, ack);
    } else {
      throw error("svc: unexpected message '" + m.type + "' from worker '" +
                  peer.name + "'");
    }
  }

  /// The one end of a campaign ("late worker" in coordinator.hpp): every
  /// accepted connection, greeted or not, hears `shutdown reason=<why>`;
  /// then the listener closes.
  void end_campaign(const char* why) {
    net::message bye = net::make("shutdown");
    bye.fields["reason"] = why;
    for (auto& [fd, peer] : peers) {
      (void)fd;
      try {
        peer.conn.send_frame(net::encode(bye), 1000);
      } catch (const error&) {
        // Peer already gone; nothing to tell it.
      }
    }
    lst.close();
  }

  dist::shard_aggregate run() {
    const auto start = clk->now();
    started = start;
    const bool bounded = opts.deadline_s > 0;
    const auto hard_deadline =
        start + std::chrono::milliseconds(
                    static_cast<long long>(opts.deadline_s * 1000.0));
    auto next_telemetry = start + telemetry_step();
    log("serving sweep of " + std::to_string(total_items) + " items on port " +
        std::to_string(lst.port()) + " (lease " + std::to_string(lease_items) +
        " items, chunk " + std::to_string(opts.chunk_items) + ")");
    while (!merger.complete(total_items)) {
      const auto now = clk->now();
      if (bounded && now >= hard_deadline) {
        end_campaign("deadline");
        throw error("svc: coordinator deadline (" +
                    std::to_string(opts.deadline_s) + " s) elapsed with " +
                    std::to_string(merger.next()) + "/" +
                    std::to_string(total_items) + " items folded");
      }
      expire_leases(now);
      grant_leases(now);
      propose_steal();
      if (opts.on_telemetry && now >= next_telemetry) {
        opts.on_telemetry(telemetry());
        next_telemetry = now + telemetry_step();
      }
      if (merger.complete(total_items)) break;

      // Sleep until the next lease deadline (or a coarse tick so new
      // deadlines/steals are considered), waking early on any traffic.
      auto wake = now + std::chrono::milliseconds(200);
      if (bounded) wake = std::min(wake, hard_deadline);
      if (opts.on_telemetry) wake = std::min(wake, next_telemetry);
      for (const auto& [id, ls] : active) {
        (void)id;
        wake = std::min(wake, ls.deadline);
      }
      const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
          wake - clk->now());
      const int timeout_ms =
          wait.count() > 0 ? static_cast<int>(wait.count()) : 0;

      std::vector<pollfd> fds;
      fds.push_back(pollfd{lst.fd(), POLLIN, 0});
      std::vector<int> fd_of;
      for (const auto& [fd, peer] : peers) {
        (void)peer;
        fds.push_back(pollfd{fd, POLLIN, 0});
        fd_of.push_back(fd);
      }
      const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
      if (rc < 0) {
        if (errno == EINTR) continue;
        throw error("svc: coordinator poll failed");
      }
      if (rc == 0) continue;

      if ((fds[0].revents & POLLIN) != 0) {
        peer_state peer;
        peer.conn = lst.accept();
        const int fd = peer.conn.fd();
        peers.emplace(fd, std::move(peer));
      }
      const auto after = clk->now();
      for (std::size_t i = 1; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const int fd = fd_of[i - 1];
        const auto it = peers.find(fd);
        if (it == peers.end()) continue;  // dropped earlier this round
        try {
          if (!it->second.conn.fill()) {
            drop_peer(fd, "connection closed");
            continue;
          }
          while (true) {
            auto frame = it->second.conn.take_frame();
            if (!frame) break;
            handle(fd, net::decode(*frame), after);
            if (peers.find(fd) == peers.end()) break;  // dropped in handle
          }
        } catch (const error& e) {
          drop_peer(fd, e.what());
        }
      }
    }

    if (opts.on_telemetry) opts.on_telemetry(telemetry());
    end_campaign("complete");
    log("sweep complete: " + std::to_string(counters.results_accepted) +
        " lease result(s) folded, " + std::to_string(counters.expired) +
        " expired, " + std::to_string(counters.steals) + " steal(s)");
    return merger.take(total_items);
  }
};

coordinator::coordinator(api::sweep sw, coordinator_options opts)
    : impl_(std::make_unique<impl>(std::move(sw), std::move(opts))) {}

coordinator::~coordinator() = default;

std::uint16_t coordinator::port() const noexcept { return impl_->lst.port(); }

dist::shard_aggregate coordinator::run() { return impl_->run(); }

const coordinator_counters& coordinator::counters() const noexcept {
  return impl_->counters;
}

}  // namespace bsched::svc
