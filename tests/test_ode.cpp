#include <gtest/gtest.h>

#include <cmath>

#include "support/steppers.hpp"
#include "util/error.hpp"

namespace bsched::ode {
namespace {

// dy/dt = -y has the closed form y(t) = y0 e^{-t}.
const auto decay = [](double, const state<1>& y) -> state<1> {
  return {-y[0]};
};

// Harmonic oscillator: y'' = -y as a 2d system; energy is conserved.
const auto oscillator = [](double, const state<2>& y) -> state<2> {
  return {y[1], -y[0]};
};

TEST(Euler, ConvergesFirstOrder) {
  const double exact = std::exp(-1.0);
  const double err_h = std::abs(
      integrate_fixed(euler{}, decay, 0, 1, state<1>{1.0}, 1e-3)[0] - exact);
  const double err_h2 = std::abs(
      integrate_fixed(euler{}, decay, 0, 1, state<1>{1.0}, 5e-4)[0] - exact);
  EXPECT_LT(err_h, 1e-3);
  // Halving the step should roughly halve the error (order 1).
  EXPECT_NEAR(err_h / err_h2, 2.0, 0.2);
}

TEST(Rk4, ConvergesFourthOrder) {
  const double exact = std::exp(-1.0);
  const double err_h = std::abs(
      integrate_fixed(rk4{}, decay, 0, 1, state<1>{1.0}, 1e-2)[0] - exact);
  const double err_h2 = std::abs(
      integrate_fixed(rk4{}, decay, 0, 1, state<1>{1.0}, 5e-3)[0] - exact);
  EXPECT_LT(err_h, 1e-9);
  EXPECT_NEAR(err_h / err_h2, 16.0, 4.0);  // order 4 => factor ~2^4
}

TEST(Rk4, OscillatorConservesEnergy) {
  state<2> y{1.0, 0.0};
  y = integrate_fixed(rk4{}, oscillator, 0, 20 * 3.14159265358979, y, 1e-3);
  const double energy = y[0] * y[0] + y[1] * y[1];
  EXPECT_NEAR(energy, 1.0, 1e-8);
}

TEST(CashKarp, ErrorEstimateTracksTruth) {
  state<1> err{};
  const state<1> y1 = cash_karp_step(decay, 0, state<1>{1.0}, 0.1, err);
  const double truth = std::exp(-0.1);
  EXPECT_NEAR(y1[0], truth, 1e-9);
  EXPECT_LT(std::abs(err[0]), 1e-6);
}

TEST(Adaptive, MeetsTolerance) {
  for (const double tol : {1e-6, 1e-9, 1e-12}) {
    const state<1> y =
        integrate_adaptive(decay, 0, 5, state<1>{1.0}, tol);
    EXPECT_NEAR(y[0], std::exp(-5.0), 100 * tol) << "tol=" << tol;
  }
}

TEST(Adaptive, HandlesZeroLengthInterval) {
  const state<1> y = integrate_adaptive(decay, 2, 2, state<1>{0.7});
  EXPECT_DOUBLE_EQ(y[0], 0.7);
}

TEST(Adaptive, RejectsBackwardInterval) {
  EXPECT_THROW(integrate_adaptive(decay, 1, 0, state<1>{1.0}),
               bsched::error);
}

}  // namespace
}  // namespace bsched::ode
