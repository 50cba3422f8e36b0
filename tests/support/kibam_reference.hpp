// Reference forms of the continuous KiBaM that the tests check the
// library's segment-analytic solution against: the closed-form
// constant-current lifetime and the right-hand sides of eq. (1)/(2) for
// the ODE steppers of support/steppers.hpp.
#pragma once

#include <array>

#include "kibam/kibam.hpp"
#include "kibam/parameters.hpp"
#include "util/error.hpp"

namespace bsched::kibam {

/// Lifetime for constant current `current_a` (closed form via eq. (3)).
inline double constant_current_lifetime(const battery_parameters& p,
                                        double current_a) {
  validate(p);
  require(current_a > 0, "constant_current_lifetime: current must be > 0");
  // An upper bound: the lifetime can never exceed C / I (energy balance).
  const double bound = p.capacity_amin / current_a + 1.0;
  const auto hit = time_to_empty(p, full(p), current_a, bound);
  BSCHED_ASSERT(hit.has_value());
  return *hit;
}

/// Right-hand side of eq. (2) (state vector = {delta, gamma}).
struct transformed_rhs {
  battery_parameters params;
  double current_a;

  [[nodiscard]] std::array<double, 2> operator()(
      double /*t*/, const std::array<double, 2>& y) const noexcept {
    return {current_a / params.c - params.k_prime * y[0], -current_a};
  }
};

/// Right-hand side of eq. (1) in well coordinates (state = {y1, y2}).
struct wells_rhs {
  battery_parameters params;
  double current_a;

  [[nodiscard]] std::array<double, 2> operator()(
      double /*t*/, const std::array<double, 2>& y) const noexcept {
    const double h1 = y[0] / params.c;
    const double h2 = y[1] / (1 - params.c);
    const double flow = params.k() * (h2 - h1);
    return {-current_a + flow, -flow};
  }
};

}  // namespace bsched::kibam
