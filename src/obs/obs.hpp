// The instrumentation macros — the only way src/ code touches src/obs.
//
// Every hook compiles to *nothing* when BSCHED_OBS=OFF (no handle, no
// static, no argument evaluation), which is what lets the kibam hot
// kernels carry hooks without a perf-gate excursion; bench_gate.py in
// scripts/ci.sh verifies the obs-off build against the committed
// baseline. When ON, each site pays one function-local-static guard load
// plus a thread-local shard store (counters/histograms) or one relaxed
// load when tracing is disabled (spans). Counter, gauge and histogram
// hooks allocate nothing once their site has registered: the registry's
// id and kind checks build their error messages only when they throw
// (tests/test_alloc.cpp pins the count at zero). bench_micro's
// bm_counter_add measures one counter hook at 6.5-11 ns on a 4-core x86-64
// box, Release build.
//
//   macro                          BSCHED_OBS=ON            OFF
//   ------------------------------ ------------------------ ------------
//   BSCHED_COUNTER_ADD(n, d)       shard add, no alloc      nothing
//   BSCHED_GAUGE_SET(n, v)         relaxed store, no alloc  nothing
//   BSCHED_HISTOGRAM_OBSERVE(
//       n, v, bounds...)           bucket + sum add         nothing
//   BSCHED_TRACE_SPAN(var, ...)    RAII span on global()    null_span
//   var.id()                       span id (0 if disabled)  0
//
// BSCHED_TRACE_SPAN takes (var, "name") or (var, "name", parent_id); the
// extra parent form is how cross-thread children (the sweep pool) link
// to the sweep span on the submitting thread. `var.id()` compiles in
// both modes, so parent ids can be captured unconditionally.
//
// Direct use of obs::detail outside src/obs is a lint finding
// (obs-discipline in scripts/lint_bsched.py) — these macros are the
// whole instrumentation surface.
#pragma once

#if defined(BSCHED_OBS_ENABLED)

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#define BSCHED_COUNTER_ADD(name, delta)                                      \
  do {                                                                       \
    static const ::bsched::obs::detail::counter_handle bsched_obs_h_{name};  \
    bsched_obs_h_.add(delta);                                                \
  } while (0)

#define BSCHED_GAUGE_SET(name, value)                                        \
  do {                                                                       \
    static const ::bsched::obs::detail::gauge_handle bsched_obs_h_{name};    \
    bsched_obs_h_.set(value);                                                \
  } while (0)

/// Trailing arguments are the bucket upper bounds (strictly increasing).
#define BSCHED_HISTOGRAM_OBSERVE(name, value, ...)                           \
  do {                                                                       \
    static const ::bsched::obs::detail::histogram_handle bsched_obs_h_{      \
        name, {__VA_ARGS__}};                                                \
    bsched_obs_h_.observe(value);                                            \
  } while (0)

/// Declares `var`, an RAII span on tracer::global(). Forms:
///   BSCHED_TRACE_SPAN(var, "name");
///   BSCHED_TRACE_SPAN(var, "name", parent_id);
#define BSCHED_TRACE_SPAN(var, ...) \
  [[maybe_unused]] ::bsched::obs::detail::span var { __VA_ARGS__ }

#else  // BSCHED_OBS=OFF: hooks vanish; arguments are never evaluated.

#include "obs/trace.hpp"  // detail::null_span, so `var.id()` compiles

#define BSCHED_COUNTER_ADD(name, delta) \
  do {                                  \
  } while (0)

#define BSCHED_GAUGE_SET(name, value) \
  do {                                \
  } while (0)

#define BSCHED_HISTOGRAM_OBSERVE(name, value, ...) \
  do {                                             \
  } while (0)

#define BSCHED_TRACE_SPAN(var, ...) \
  [[maybe_unused]] ::bsched::obs::detail::null_span var {}

#endif  // BSCHED_OBS_ENABLED
