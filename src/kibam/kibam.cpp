#include "kibam/kibam.hpp"

#include <cmath>

#include "util/error.hpp"

namespace bsched::kibam {

namespace {

/// Empty margin gamma - (1-c) delta; positive while the battery is alive.
/// Proportional to the available charge: margin = y1 / c.
double empty_margin(const battery_parameters& p, const state& s) {
  return s.gamma - (1 - p.c) * s.delta;
}

}  // namespace

state full(const battery_parameters& p) {
  validate(p);
  return {0.0, p.capacity_amin};
}

double available_charge(const battery_parameters& p, const state& s) {
  return p.c * empty_margin(p, s);
}

state advance(const battery_parameters& p, const state& s, double current_a,
              double dt_min) {
  require(dt_min >= 0, "advance: negative time step");
  require(current_a >= 0, "advance: negative current");
  const double d_inf = current_a / (p.c * p.k_prime);
  const double decay = std::exp(-p.k_prime * dt_min);
  return {d_inf + (s.delta - d_inf) * decay, s.gamma - current_a * dt_min};
}

std::optional<double> time_to_empty(const battery_parameters& p,
                                    const state& s, double current_a,
                                    double dt_min) {
  require(dt_min >= 0, "time_to_empty: negative interval");
  const auto margin_at = [&](double t) {
    return empty_margin(p, advance(p, s, current_a, t));
  };
  if (margin_at(0.0) <= 0) return 0.0;
  // The margin m(t) = gamma0 - I t - (1-c)(d_inf + (delta0 - d_inf) e^{-k't})
  // can cross zero at most once from above when I > 0 on intervals where it
  // is decreasing; with recovery (I = 0) the margin only grows.
  if (margin_at(dt_min) > 0) return std::nullopt;
  // Bracketed Newton on the closed form, falling back to bisection.
  double lo = 0, hi = dt_min;
  double t = dt_min / 2;
  for (int iter = 0; iter < 200; ++iter) {
    const double m = margin_at(t);
    if (m > 0) lo = t;
    else hi = t;
    if (hi - lo < 1e-13) break;
    const double d_inf = current_a / (p.c * p.k_prime);
    const double decay = std::exp(-p.k_prime * t);
    const double deriv =
        -current_a + (1 - p.c) * p.k_prime * (s.delta - d_inf) * decay;
    double next = (deriv != 0) ? t - m / deriv : (lo + hi) / 2;
    if (!(next > lo && next < hi)) next = (lo + hi) / 2;
    t = next;
  }
  return (lo + hi) / 2;
}

double lifetime(const battery_parameters& p, const load::trace& load,
                double horizon_min) {
  validate(p);
  state s = full(p);
  load::epoch_cursor cursor{load};
  double t = 0;
  while (t < horizon_min) {
    const load::epoch& e = cursor.current();
    if (const auto hit = time_to_empty(p, s, e.current_a, e.duration_min)) {
      return t + *hit;
    }
    s = advance(p, s, e.current_a, e.duration_min);
    t += e.duration_min;
    cursor.advance();
  }
  throw error("lifetime: battery survived the analysis horizon");
}

}  // namespace bsched::kibam
