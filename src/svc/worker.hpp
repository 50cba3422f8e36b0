// The sweep-service worker: connects to a coordinator (svc/coordinator.hpp),
// receives the full sweep definition over the wire (no compiled-in grid),
// and runs leases until told to shut down.
//
// A lease's item range is executed in chunks of the coordinator-announced
// size, each appended by dist::run_shard to one lease aggregate (copied
// from the session's dist::empty_aggregate) item by item in stream order,
// so the lease result is exactly that of a single contiguous run. After
// every chunk the worker answers work-steal `trim` proposals with the
// actual cut — never below what it has already computed; it then ships
// the finished lease as one `result` frame and waits for the ack. A
// rejected ack (stale epoch after an expiry) just discards the work and
// asks for the next lease.
//
// Heartbeats run on a clock, not per chunk: one after a lease's first
// chunk, then one after any chunk that ends at least
// min(telemetry_ms, lease_timeout_ms / 4) after the last — both announced
// in the sweep message. Each carries the global item frontier and the
// worker's metrics snapshot, so the coordinator's telemetry view lags by
// at most one interval and a lease hears from its worker about four
// times per lease timeout, however long the lease runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "api/engine.hpp"
#include "util/clock.hpp"

namespace bsched::svc {

struct worker_options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string name = "worker";  ///< Reported in the hello (logs only).
  /// dist::run_shard pool per chunk; 0 = hardware concurrency. Chunks
  /// are a few items, which one thread runs faster than a fresh pool
  /// starts.
  std::size_t n_threads = 1;
  /// Max quiet period on the control socket (waiting for a lease, the
  /// sweep, or an ack) before the worker gives up on the coordinator.
  int io_timeout_ms = 120000;
  std::ostream* log = nullptr;
  /// Monotonic time source for chunk timing (the
  /// svc.worker.chunk_seconds histogram) and the heartbeat cadence, read
  /// at the start and at the end of every chunk;
  /// null = util::monotonic_clock::system().
  const util::monotonic_clock* clock = nullptr;
};

/// What one worker session did, for logs and tests.
struct worker_report {
  std::size_t leases = 0;    ///< Results accepted by the coordinator.
  std::size_t rejected = 0;  ///< Results rejected (stale lease epoch).
  std::size_t items = 0;     ///< Items computed (incl. rejected leases).
  std::size_t trims = 0;     ///< Work-steal trims honored.
};

/// Runs the worker loop until the coordinator sends `shutdown
/// reason=complete` (returns; an empty report in place of the sweep). Any
/// other shutdown reason throws bsched::error naming it, as do a dial after
/// the campaign and a dead or timed-out connection. `engine` supplies the
/// policy registry — a fleet must register the sweep's custom policies.
worker_report run_worker(const api::engine& engine,
                         const worker_options& opts);

}  // namespace bsched::svc
