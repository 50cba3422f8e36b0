// Lock-cheap metrics registry — the counting half of src/obs.
//
// Three metric kinds, all named by stable identifier strings:
//   * counter   — monotonic u64, incremented from any thread;
//   * gauge     — last-written double (set, not accumulated);
//   * histogram — fixed upper-bound buckets over doubles. A value lands
//                 in the first bucket whose upper bound is >= the value
//                 (buckets are half-open (lo, hi], Prometheus-style),
//                 with an implicit +inf overflow bucket past the last
//                 bound; the total count and the running sum ride along.
//
// Counters and histograms write to thread-local *shards*: each thread
// owns a block of plain-store atomic cells, so the hot increment path is
// one thread-local pointer load plus one relaxed load/store — no shared
// cache line, no lock, and exact (each cell has a single writer). A cell
// never moves (shard blocks are never reallocated and the registry is
// never destroyed), so a counter hook caches its thread's cell pointer
// and adds to it directly. scrape() folds every
// shard under the registry mutex; shards of exited threads are parked
// and reused (their counts persist), so folding N threads x M increments
// yields exactly N*M. Registration is idempotent by name and its order
// is deterministic: the snapshot lists metrics in first-registration
// order, and the telemetry exposition (obs/telemetry.hpp) sorts by name,
// so two scrapes with no activity in between are byte-identical.
//
// Instrumentation sites never call this API directly — they go through
// the BSCHED_* macros of obs/obs.hpp (enforced by the lint's
// obs-discipline rule), which compile to nothing when BSCHED_OBS=OFF.
// Reading sides (scrape, telemetry encoding, tests) use it freely.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace bsched::obs {

/// One counter, as folded by scrape().
struct counter_sample {
  std::string name;
  std::uint64_t value = 0;

  friend bool operator==(const counter_sample&,
                         const counter_sample&) = default;
};

/// One gauge, as folded by scrape().
struct gauge_sample {
  std::string name;
  double value = 0;

  friend bool operator==(const gauge_sample&, const gauge_sample&) = default;
};

/// One histogram, as folded by scrape(). `buckets` has bounds.size() + 1
/// entries — the last is the +inf overflow bucket. Bucket i counts
/// observations in (bounds[i-1], bounds[i]] (first bucket: (-inf,
/// bounds[0]]).
struct histogram_sample {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  double sum = 0;

  /// Total observation count (the buckets summed).
  [[nodiscard]] std::uint64_t count() const noexcept;

  friend bool operator==(const histogram_sample&,
                         const histogram_sample&) = default;
};

/// A consistent point-in-time fold of one registry (or, merged, of a
/// whole fleet — svc::coordinator aggregates worker snapshots this way).
/// Metrics appear in first-registration order within their kind.
struct snapshot {
  std::vector<counter_sample> counters;
  std::vector<gauge_sample> gauges;
  std::vector<histogram_sample> histograms;

  /// Folds `other` in by name: counters and histogram buckets/sums add
  /// (histograms must agree on bounds), gauges take `other`'s value.
  /// Names unseen on this side append in `other`'s order.
  void merge(const snapshot& other);

  /// A copy with every metric renamed `prefix + name` — the per-worker
  /// namespacing of the fleet-wide telemetry view.
  [[nodiscard]] snapshot prefixed(const std::string& prefix) const;

  friend bool operator==(const snapshot&, const snapshot&) = default;
};

/// The metric registry: one per process, registry::global(), which every
/// obs macro targets. Registration returns a dense id consumed by
/// counter_cell/set/observe.
class registry {
 public:
  registry(const registry&) = delete;
  registry& operator=(const registry&) = delete;
  ~registry() = delete;  // built once, never destroyed

  /// Register-or-look-up by name (idempotent; throws bsched::error when
  /// the name is already taken by another kind, is empty, or contains
  /// characters outside [A-Za-z0-9_.:-]).
  std::size_t counter(std::string_view name);
  std::size_t gauge(std::string_view name);
  /// `bounds` must be strictly increasing and non-empty; re-registration
  /// must repeat the same bounds.
  std::size_t histogram(std::string_view name, std::vector<double> bounds);

  /// This thread's cell of a counter, bound (adopting or making the
  /// thread's shard) on first use. The cell stays at one address for the
  /// thread's life, and only this thread writes it: add with a relaxed
  /// load and store (obs::detail::add).
  std::atomic<std::uint64_t>& counter_cell(std::size_t id);
  /// Sets a gauge (last write wins across threads).
  void set(std::size_t id, double value);
  /// Records one histogram observation.
  void observe(std::size_t id, double value);

  /// Folds every shard into a consistent snapshot.
  [[nodiscard]] snapshot scrape() const;

  /// The process's registry, built on first use. It is never destroyed,
  /// so a thread may exit (parking its shard) at any time.
  static registry& global();

 private:
  registry();
  struct state;
  std::unique_ptr<state> st_;
};

namespace detail {

// The instrumentation-side handles the obs macros expand to. They cache
// the global registry and the metric id in a function-local static. A
// counter site also caches this thread's cell in a thread_local, so a hot
// counter hook is one thread-local load plus the cell add, and a gauge or
// histogram hook one static-init guard load plus the store. Direct use
// outside src/obs is a lint finding (obs-discipline) — include
// obs/obs.hpp and use the macros instead.

/// Adds to a counter cell. Its one writer is the thread that bound it, so
/// a relaxed load and store make an exact add.
inline void add(std::atomic<std::uint64_t>& cell, std::uint64_t delta) {
  cell.store(cell.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

class counter_handle {
 public:
  explicit counter_handle(std::string_view name)
      : reg_(&registry::global()), id_(reg_->counter(name)) {}
  [[nodiscard]] std::atomic<std::uint64_t>& cell() const {
    return reg_->counter_cell(id_);
  }

 private:
  registry* reg_;
  std::size_t id_;
};

class gauge_handle {
 public:
  explicit gauge_handle(std::string_view name)
      : reg_(&registry::global()), id_(reg_->gauge(name)) {}
  void set(double value) const { reg_->set(id_, value); }

 private:
  registry* reg_;
  std::size_t id_;
};

class histogram_handle {
 public:
  histogram_handle(std::string_view name, std::vector<double> bounds)
      : reg_(&registry::global()),
        id_(reg_->histogram(name, std::move(bounds))) {}
  void observe(double value) const { reg_->observe(id_, value); }

 private:
  registry* reg_;
  std::size_t id_;
};

}  // namespace detail

}  // namespace bsched::obs
