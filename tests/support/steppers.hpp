// Explicit ODE steppers, hand-rolled (no external numerics dependency).
//
// All steppers operate on fixed-dimension states `std::array<double, N>` and
// a right-hand side callable `f(double t, const state&) -> state`. Test
// reference code: the tests integrate the Kinetic Battery Model's ODEs
// (eq. (1)/(2) of the paper) with them to cross-check the library's
// closed-form solution.
#pragma once

#include <array>
#include <cmath>
#include <concepts>
#include <cstddef>

#include "util/error.hpp"

namespace bsched::ode {

template <std::size_t N>
using state = std::array<double, N>;

/// A right-hand side f(t, y) -> dy/dt.
template <typename F, std::size_t N>
concept rhs = requires(F f, double t, const state<N>& y) {
  { f(t, y) } -> std::convertible_to<state<N>>;
};

namespace detail {

template <std::size_t N>
constexpr state<N> axpy(double a, const state<N>& x, const state<N>& y) {
  state<N> out{};
  for (std::size_t i = 0; i < N; ++i) out[i] = a * x[i] + y[i];
  return out;
}

}  // namespace detail

/// Forward Euler: first order, one RHS evaluation per step.
struct euler {
  template <std::size_t N, rhs<N> F>
  state<N> operator()(F&& f, double t, const state<N>& y, double h) const {
    return detail::axpy(h, f(t, y), y);
  }
  static constexpr int order = 1;
};

/// Classic fourth-order Runge-Kutta.
struct rk4 {
  template <std::size_t N, rhs<N> F>
  state<N> operator()(F&& f, double t, const state<N>& y, double h) const {
    const state<N> k1 = f(t, y);
    const state<N> k2 = f(t + h / 2, detail::axpy(h / 2, k1, y));
    const state<N> k3 = f(t + h / 2, detail::axpy(h / 2, k2, y));
    const state<N> k4 = f(t + h, detail::axpy(h, k3, y));
    state<N> out{};
    for (std::size_t i = 0; i < N; ++i) {
      out[i] = y[i] + h / 6 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]);
    }
    return out;
  }
  static constexpr int order = 4;
};

/// One embedded Cash-Karp 4(5) step: returns the 5th-order estimate and
/// writes the per-component error estimate into `err`.
template <std::size_t N, rhs<N> F>
state<N> cash_karp_step(F&& f, double t, const state<N>& y, double h,
                        state<N>& err) {
  // Cash-Karp tableau.
  constexpr double a2 = 1.0 / 5, a3 = 3.0 / 10, a4 = 3.0 / 5, a5 = 1.0,
                   a6 = 7.0 / 8;
  constexpr double b21 = 1.0 / 5;
  constexpr double b31 = 3.0 / 40, b32 = 9.0 / 40;
  constexpr double b41 = 3.0 / 10, b42 = -9.0 / 10, b43 = 6.0 / 5;
  constexpr double b51 = -11.0 / 54, b52 = 5.0 / 2, b53 = -70.0 / 27,
                   b54 = 35.0 / 27;
  constexpr double b61 = 1631.0 / 55296, b62 = 175.0 / 512,
                   b63 = 575.0 / 13824, b64 = 44275.0 / 110592,
                   b65 = 253.0 / 4096;
  constexpr double c1 = 37.0 / 378, c3 = 250.0 / 621, c4 = 125.0 / 594,
                   c6 = 512.0 / 1771;
  constexpr double d1 = c1 - 2825.0 / 27648, d3 = c3 - 18575.0 / 48384,
                   d4 = c4 - 13525.0 / 55296, d5 = -277.0 / 14336,
                   d6 = c6 - 1.0 / 4;

  const state<N> k1 = f(t, y);
  state<N> tmp{};
  for (std::size_t i = 0; i < N; ++i) tmp[i] = y[i] + h * b21 * k1[i];
  const state<N> k2 = f(t + a2 * h, tmp);
  for (std::size_t i = 0; i < N; ++i)
    tmp[i] = y[i] + h * (b31 * k1[i] + b32 * k2[i]);
  const state<N> k3 = f(t + a3 * h, tmp);
  for (std::size_t i = 0; i < N; ++i)
    tmp[i] = y[i] + h * (b41 * k1[i] + b42 * k2[i] + b43 * k3[i]);
  const state<N> k4 = f(t + a4 * h, tmp);
  for (std::size_t i = 0; i < N; ++i)
    tmp[i] = y[i] + h * (b51 * k1[i] + b52 * k2[i] + b53 * k3[i] + b54 * k4[i]);
  const state<N> k5 = f(t + a5 * h, tmp);
  for (std::size_t i = 0; i < N; ++i)
    tmp[i] = y[i] + h * (b61 * k1[i] + b62 * k2[i] + b63 * k3[i] +
                         b64 * k4[i] + b65 * k5[i]);
  const state<N> k6 = f(t + a6 * h, tmp);

  state<N> out{};
  for (std::size_t i = 0; i < N; ++i) {
    out[i] = y[i] + h * (c1 * k1[i] + c3 * k3[i] + c4 * k4[i] + c6 * k6[i]);
    err[i] = h * (d1 * k1[i] + d3 * k3[i] + d4 * k4[i] + d5 * k5[i] +
                  d6 * k6[i]);
  }
  return out;
}

/// Adaptive Cash-Karp 4(5) driver: integrates from `t0` to `t1` with local
/// error per step below `tol` (mixed absolute/relative).
template <std::size_t N, rhs<N> F>
state<N> integrate_adaptive(F&& f, double t0, double t1, state<N> y,
                            double tol = 1e-9, double h_init = 1e-3) {
  require(t1 >= t0, "integrate_adaptive: t1 must be >= t0");
  require(tol > 0, "integrate_adaptive: tol must be positive");
  double t = t0;
  double h = h_init;
  constexpr double safety = 0.9;
  constexpr double shrink = -0.25, grow = -0.2;
  while (t < t1) {
    if (t + h > t1) h = t1 - t;
    state<N> err{};
    const state<N> trial = cash_karp_step(f, t, y, h, err);
    double max_ratio = 0;
    for (std::size_t i = 0; i < N; ++i) {
      const double scale = tol * (std::abs(y[i]) + std::abs(h * 1.0) + 1e-30);
      max_ratio = std::max(max_ratio, std::abs(err[i]) / scale);
    }
    if (max_ratio <= 1.0) {
      t += h;
      y = trial;
      h *= std::min(5.0, safety * std::pow(std::max(max_ratio, 1e-10), grow));
    } else {
      h *= std::max(0.1, safety * std::pow(max_ratio, shrink));
    }
    BSCHED_ASSERT(h > 0);
  }
  return y;
}

/// Fixed-step driver: advances y from t0 to t1 in steps of (at most) h.
template <typename Stepper, std::size_t N, rhs<N> F>
state<N> integrate_fixed(Stepper step, F&& f, double t0, double t1,
                         state<N> y, double h) {
  require(h > 0, "integrate_fixed: step must be positive");
  double t = t0;
  while (t < t1) {
    const double hh = std::min(h, t1 - t);
    y = step.template operator()<N>(f, t, y, hh);
    t += hh;
  }
  return y;
}

}  // namespace bsched::ode
