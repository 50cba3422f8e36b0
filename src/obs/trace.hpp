// Tracing — the timing half of src/obs.
//
// A *span* is an RAII scope measurement: construction records a start
// timestamp (steady clock, tracer-epoch relative), destruction records
// the duration and appends a span_record to the current thread's ring
// buffer. Spans carry explicit parent links — by default the innermost
// open span on the same thread (a per-thread stack), or an id passed
// explicitly when a child runs on another thread (the engine's sweep
// pool does this). Rings are bounded: overflow drops the *oldest*
// record and counts it in dropped().
//
// Tracing is disabled at runtime by default — a span constructed while
// the tracer is disabled is inert (one relaxed load) — and the
// instrumentation macros (obs/obs.hpp) compile away entirely under
// BSCHED_OBS=OFF. drain() collects and clears every ring;
// write_chrome_trace renders records as chrome://tracing / Perfetto
// "traceEvents" JSON into a caller-supplied sink (src/ never touches
// stdout).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace bsched::obs {

/// One completed span, as drained from a thread ring.
struct span_record {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root (no parent).
  std::uint64_t tid = 0;     ///< Tracer-assigned thread index (1-based).
  std::int64_t start_ns = 0;  ///< Nanoseconds since the tracer epoch.
  std::int64_t dur_ns = 0;

  friend bool operator==(const span_record&, const span_record&) = default;
};

namespace detail {
class span;
struct trace_ring;
}  // namespace detail

/// Owns the per-thread span rings: one per process, tracer::global().
/// Each ring holds the 4096 most recent spans completed on its thread
/// since the last drain; overflow drops the oldest.
class tracer {
 public:
  tracer(const tracer&) = delete;
  tracer& operator=(const tracer&) = delete;
  ~tracer() = delete;  // built once, never destroyed

  /// Starts (or stops) recording spans; the tracer starts disabled.
  void enable(bool on) noexcept;

  /// Collects and clears every ring: completed spans in per-thread
  /// order, threads in first-seen order.
  [[nodiscard]] std::vector<span_record> drain();

  /// Cumulative count of records lost to ring overflow ("dropped_spans").
  [[nodiscard]] std::uint64_t dropped() const;

  /// The process's tracer behind BSCHED_TRACE_SPAN, built on first use.
  /// It is never destroyed, so a thread may exit (parking its ring) at
  /// any time.
  static tracer& global();

 private:
  tracer();
  friend class detail::span;
  struct state;
  std::unique_ptr<state> st_;
};

/// Renders records as a chrome://tracing "traceEvents" JSON document
/// (complete events, microsecond timestamps, parent ids in args) into
/// the caller's sink. scripts/trace_summary.py and tools/obs_report
/// read this format back.
void write_chrome_trace(const std::vector<span_record>& spans,
                        std::ostream& out);

namespace detail {

/// The RAII span the BSCHED_TRACE_SPAN macro expands to, recorded on
/// tracer::global(). Inert when the tracer is disabled at construction.
/// Spans on one thread must nest (scoped lifetimes guarantee this);
/// cross-thread children link via the explicit-parent constructor.
class span {
 public:
  explicit span(const char* name);
  span(const char* name, std::uint64_t parent);
  ~span();
  span(const span&) = delete;
  span& operator=(const span&) = delete;

  /// This span's id, for linking children on other threads; 0 when the
  /// span is inert (tracing disabled).
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  trace_ring* ring_ = nullptr;  ///< nullptr = inert.
  const char* name_ = nullptr;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t start_ns_ = 0;
};

/// The no-op stand-in BSCHED_TRACE_SPAN declares under BSCHED_OBS=OFF,
/// so `var.id()` still compiles at call sites.
struct null_span {
  [[nodiscard]] static constexpr std::uint64_t id() noexcept { return 0; }
};

}  // namespace detail

}  // namespace bsched::obs
