// The sweep-service coordinator: one process that owns a sweep, leases
// item ranges to socket-connected workers, survives their crashes, and
// folds their shard aggregates into the single-process result.
//
// The unit of work is a *lease*: a contiguous range of the sweep's
// GLOBAL flattened (cell, replication) item stream with a deadline and a
// unique (id, epoch) identity. Because seeds derive from global indices
// (dist/shard.hpp), any re-partition of the stream — expiry re-queues,
// crash re-assignments, work-steal splits — still folds into exactly the
// same statistics, and dist::stream_merger validates the disjoint
// coverage while folding completed leases incrementally in stream order.
//
// Failure model:
//   * worker disconnects      -> its active leases re-queue immediately;
//   * worker goes quiet       -> a lease with no heartbeat, trim answer
//                                or result within lease_timeout expires
//                                and re-queues (a live worker heartbeats
//                                at least every lease_timeout / 4); the
//                                lease's (id, epoch) is retired, so a
//                                late or duplicate result is rejected
//                                (ack ok=0) instead of double-folded;
//   * straggler               -> when workers idle and nothing is
//                                pending, the coordinator proposes a
//                                `trim` splitting the straggler's
//                                remaining range; the worker answers
//                                `trimmed` with the actual cut (its true
//                                frontier if it already passed the
//                                proposal), and only then is the stolen
//                                tail re-queued — the two-phase handshake
//                                means a lost worker can at worst expire,
//                                never double-cover;
//   * late worker             -> when run() returns or throws on
//                                deadline_s, every accepted connection
//                                gets `shutdown reason=complete|deadline`
//                                and the listener closes: a later dial is
//                                refused, one still in the backlog reset;
//   * coordinator dies        -> workers' polls time out and they exit;
//                                the campaign is simply re-run.
//
// The merged result carries the documented dist equivalence contract
// against single-process api::summarize: every summary field but the
// per-process cache_hits is equal, whatever the lease, steal and
// failure history (dist/shard.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>

#include "api/sweep.hpp"
#include "dist/shard.hpp"
#include "obs/metrics.hpp"
#include "util/clock.hpp"

namespace bsched::svc {

struct coordinator_options {
  std::uint16_t port = 0;     ///< 0 = ephemeral; coordinator::port() tells.
  bool loopback_only = true;  ///< Bind 127.0.0.1 (tests/local fleets).
  /// Sizing hint only — the fleet may be larger or smaller; leases are
  /// handed to whoever connects. Used to pick the default lease size.
  std::size_t workers_expected = 1;
  /// Items per lease; 0 = ceil(items / (max(1, workers_expected) x
  /// leases_per_worker)).
  std::size_t lease_items = 0;
  static constexpr std::size_t leases_per_worker = 8;
  /// Worker chunk granularity: workers run leases in chunks of this many
  /// items, appending each to the lease's one aggregate and reading
  /// trim proposals after each (the trim/steal resolution). A chunk costs
  /// one small run_sweep over its item range; heartbeats follow
  /// telemetry_interval_s and lease_timeout_s, not this.
  std::size_t chunk_items = 4;
  /// A lease with no heartbeat, trim answer or result for this long
  /// expires and re-queues. Must comfortably exceed one chunk's runtime.
  double lease_timeout_s = 30.0;
  /// Overall wall-clock budget for run(); 0 = unlimited. When exceeded,
  /// run() throws instead of waiting forever for workers that will never
  /// come — the CI smoke's safety net.
  double deadline_s = 0.0;
  /// Enable work-stealing trims. A trim never steals fewer than
  /// 2 x chunk_items items.
  bool steal = true;
  /// Optional human-readable event log (lease grants, expiries, trims).
  std::ostream* log = nullptr;
  /// Monotonic time source for lease deadlines, uptime and the telemetry
  /// cadence; null = util::monotonic_clock::system(). Tests inject a
  /// util::manual_clock to force expiries without sleeping.
  const util::monotonic_clock* clock = nullptr;
  /// Invoked (from run()'s thread) with the fleet-wide telemetry view
  /// every telemetry_interval_s and once on completion — what
  /// `sweep_serve --metrics-out` encodes to its exposition file.
  std::function<void(const obs::snapshot&)> on_telemetry;
  /// The telemetry cadence, also announced to workers (the sweep
  /// message's telemetry_ms). A worker heartbeats, snapshot included,
  /// after the first chunk of each lease and then after the first chunk
  /// to end min(telemetry_interval_s, lease_timeout_s / 4) or more after
  /// its last heartbeat, so per-worker views in telemetry() lag by up to
  /// one interval plus one chunk, and a long interval never starves a
  /// lease of heartbeats.
  double telemetry_interval_s = 1.0;
};

/// Accounting of one coordinator run, for tests and operators.
struct coordinator_counters {
  std::size_t workers_seen = 0;
  std::size_t leases_granted = 0;
  std::size_t results_accepted = 0;
  std::size_t results_rejected = 0;  ///< Stale epoch/duplicate/bad range.
  std::size_t expired = 0;           ///< Leases re-queued by timeout.
  std::size_t requeued_disconnect = 0;
  std::size_t steals = 0;  ///< Completed trim handshakes that moved work.
  std::size_t disconnects = 0;
};

class coordinator {
 public:
  /// Binds the listening socket (so port() is valid immediately);
  /// serving starts with run(). Throws bsched::error when the port
  /// cannot be bound.
  coordinator(api::sweep sw, coordinator_options opts);
  ~coordinator();
  coordinator(const coordinator&) = delete;
  coordinator& operator=(const coordinator&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept;

  /// Serves until every item of the sweep has been folded, then ends the
  /// campaign ("late worker" above) and returns the merged aggregate (as
  /// dist::merge_shards over a disjoint shard tiling). Throws
  /// bsched::error, campaign ended, if deadline_s elapses first.
  [[nodiscard]] dist::shard_aggregate run();

  /// Post-run accounting (valid after run() returns or throws).
  [[nodiscard]] const coordinator_counters& counters() const noexcept;

  /// The fleet-wide telemetry view: coordinator counters/gauges, the
  /// coordinator's own per-worker accepted-item accounting
  /// (svc.worker.<name>.items_total — these sum exactly to the folded
  /// item count), and each worker's last heartbeat-piggybacked snapshot
  /// merged in under "worker.<name>.". Valid during and after run().
  [[nodiscard]] obs::snapshot telemetry() const;

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

}  // namespace bsched::svc
