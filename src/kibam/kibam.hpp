// The continuous Kinetic Battery Model (Sections 2.1-2.2).
//
// The state is kept in the transformed coordinates (delta, gamma) of
// eq. (2): delta = h2 - h1 and gamma = y1 + y2, where y1/y2 are the
// available/bound well charges of eq. (1). The battery is empty when
// y1 = 0, equivalently gamma = (1 - c) delta (eq. (3)). For constant current the transformed system has a closed form,
// which `advance` uses; `lifetime` walks a piecewise-constant load trace
// segment by segment and locates the empty crossing exactly (Newton with a
// bisection fallback).
#pragma once

#include <optional>

#include "kibam/parameters.hpp"
#include "load/trace.hpp"

namespace bsched::kibam {

/// State in transformed coordinates (eq. (2)).
struct state {
  double delta;  ///< Height difference h2 - h1.
  double gamma;  ///< Total remaining charge y1 + y2.
};

/// Full state for a freshly charged battery: delta = 0, gamma = C.
[[nodiscard]] state full(const battery_parameters& p);

/// Charge in the available well, y1 = c (gamma - (1-c) delta); the
/// battery is empty when this reaches 0.
[[nodiscard]] double available_charge(const battery_parameters& p,
                                      const state& s);

/// Closed-form advance of the transformed state by `dt_min` minutes under
/// constant current `current_a` (valid for current 0 as well):
///   delta(t) = I/(c k') + (delta0 - I/(c k')) e^{-k' t},
///   gamma(t) = gamma0 - I t.
[[nodiscard]] state advance(const battery_parameters& p, const state& s,
                            double current_a, double dt_min);

/// First time within [0, dt_min] at which the battery becomes empty while
/// drawing `current_a`, or nullopt if it survives the whole interval.
/// Accurate to ~1e-12 minutes.
[[nodiscard]] std::optional<double> time_to_empty(const battery_parameters& p,
                                                  const state& s,
                                                  double current_a,
                                                  double dt_min);

/// Lifetime (minutes, from full) of a single battery driven by `load`,
/// computed segment-analytically. Throws if the battery survives
/// `horizon_min` minutes (the paper's loads always exhaust the battery).
[[nodiscard]] double lifetime(const battery_parameters& p,
                              const load::trace& load,
                              double horizon_min = 1e6);

}  // namespace bsched::kibam
