// Kinetic Battery Model parameters (Section 2.1).
//
// The KiBaM splits the capacity C over an available-charge well (fraction c)
// and a bound-charge well (fraction 1-c) connected through a valve of
// conductance k. The transformed equations (2) use k' = k / (c (1 - c)).
#pragma once

namespace bsched::kibam {

/// Parameters of one battery.
struct battery_parameters {
  double capacity_amin;  ///< C, total capacity in ampere-minutes.
  double c;              ///< Available-charge fraction, in (0, 1).
  double k_prime;        ///< k' = k / (c (1-c)), per minute.

  /// Valve conductance k recovered from k' (eq. (2)).
  [[nodiscard]] double k() const noexcept { return k_prime * c * (1 - c); }

  friend bool operator==(const battery_parameters&,
                         const battery_parameters&) = default;
};

/// Throws bsched::error unless the parameters are physically meaningful.
void validate(const battery_parameters& p);

/// Battery B1 of Section 5: 5.5 A*min.
[[nodiscard]] battery_parameters battery_b1();
/// Battery B2 of Section 5: 11 A*min.
[[nodiscard]] battery_parameters battery_b2();
/// The Itsy pocket-computer Li-ion cell fit used throughout the paper
/// (c = 0.166, k' = 0.122/min) with an arbitrary capacity (used in
/// capacity sweeps).
[[nodiscard]] battery_parameters itsy_battery(double capacity_amin);

}  // namespace bsched::kibam
