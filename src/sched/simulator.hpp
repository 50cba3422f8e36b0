// Multi-battery system simulator.
//
// Drives a bank of batteries against a load trace under a scheduling
// policy, in either of two fidelity modes:
//   * discrete  — the dKiBaM stepped at the paper's granularity; this is
//                 the model Tables 3-5 are computed with;
//   * continuous — the analytic KiBaM advanced segment-exactly; used for
//                 cross-validation and cheap capacity sweeps.
// Both fidelities run through one epoch/job/hand-over core (simulator.cpp)
// parameterised over a battery-model backend; only time advancement and
// trace sampling differ between them. Banks may be heterogeneous in either
// mode. The system lifetime is the instant the last battery is observed
// empty while serving load (the `maximum finder` semantics of Fig. 5(e)).
//
// Model-aware policies are served automatically: the core invokes the
// policy's binding hook (policy::bind_model — bank model + load
// forecast) once per run before reset, and both backends hand a
// sched::model_view (decision-time rollout window) into every decision
// context. Blind policies are unaffected.
#pragma once

#include <vector>

#include "kibam/bank.hpp"
#include "kibam/discrete.hpp"
#include "kibam/kibam.hpp"
#include "load/discretize.hpp"
#include "load/trace.hpp"
#include "sched/policy.hpp"

namespace bsched::sched {

/// One `new_job` event: which battery was put on at what time.
struct decision {
  double time_min;
  std::size_t battery;
  std::size_t job_index;
  bool handover;  ///< True when caused by a mid-job battery death.

  friend bool operator==(const decision&, const decision&) = default;
};

/// Sampled system state for plotting (Figure 6).
struct trace_point {
  double time_min;
  std::vector<double> total_amin;      ///< gamma per battery.
  std::vector<double> available_amin;  ///< y1 per battery.
  int active;                          ///< Battery in use, -1 when idle.

  friend bool operator==(const trace_point&, const trace_point&) = default;
};

struct sim_options {
  double horizon_min = 1e6;      ///< Fail if the system outlives this.
  /// Collect `trace_point`s. Observation only: lifetime, residual and
  /// decisions are bit-identical to an untraced run.
  bool record_trace = false;
  double sample_min = 0.05;      ///< Trace sampling interval.

  friend bool operator==(const sim_options&, const sim_options&) = default;
};

struct sim_result {
  double lifetime_min = 0;
  std::vector<decision> decisions;
  std::vector<trace_point> trace;
  /// Total charge left in the bank at death (the residual the paper's
  /// Section 6 discusses: ~70% for ILs alt at C = 5.5).
  double residual_amin = 0;

  friend bool operator==(const sim_result&, const sim_result&) = default;
};

/// Discrete (dKiBaM) simulation of an already-built, possibly
/// heterogeneous kibam::bank (each battery stepped on its own
/// discretization over the bank's shared grid) — the same bank object the
/// exact search and the rollout scheduler advance, so search and replay
/// are guaranteed to step identical per-battery state. The bank is only
/// read, so concurrent runs may share one (engine::run_sweep does); the
/// identical-battery overload below builds a bank and delegates here.
[[nodiscard]] sim_result simulate_discrete(const kibam::bank& bank,
                                           const load::trace& load,
                                           policy& pol,
                                           const sim_options& opts = {});

/// Discrete simulation of `battery_count` identical batteries (the paper's
/// Tables 3-5 setup).
[[nodiscard]] sim_result simulate_discrete(const kibam::discretization& disc,
                                           std::size_t battery_count,
                                           const load::trace& load,
                                           policy& pol,
                                           const sim_options& opts = {});

/// Continuous (analytic KiBaM) simulation; batteries may be heterogeneous.
[[nodiscard]] sim_result simulate_continuous(
    const std::vector<kibam::battery_parameters>& batteries,
    const load::trace& load, policy& pol, const sim_options& opts = {});

}  // namespace bsched::sched
