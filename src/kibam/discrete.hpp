// The discretized Kinetic Battery Model, dKiBaM (Section 2.3).
//
// Time advances in steps of T minutes; the total charge is split into
// N = C / Gamma units and the height difference into units of Gamma / c.
// Per time step two independent processes run, mirroring the two automata
// of Fig. 5:
//   1. recovery   — when m >= 2, after recov_time[m] steps m decreases by
//                   one (eq. (6), rounded to the nearest step);
//   2. discharge  — while switched on, every `cur_times` steps the battery
//                   loses `cur` total-charge units and m grows by `cur`.
// The battery is observed empty right after a draw that satisfies
// (1000 - c) m >= c n (eq. (8) in the paper's permille encoding); an empty
// battery can never be used again.
//
// The exact transition ordering inside one step (recovery before discharge)
// reproduces 15 of the paper's 20 TA-KiBaM validation rows to the printed
// 0.01-minute digit and the rest within one discharge tick; see
// EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <vector>

#include "kibam/kibam.hpp"
#include "kibam/parameters.hpp"
#include "load/discretize.hpp"
#include "load/trace.hpp"
#include "util/error.hpp"

namespace bsched::kibam {

/// Shared, immutable discretization of a battery type: unit sizes, the
/// permille-encoded empty condition and the precomputed recovery table.
class discretization {
 public:
  explicit discretization(const battery_parameters& params,
                          load::step_sizes steps = {});

  [[nodiscard]] const battery_parameters& params() const noexcept {
    return params_;
  }
  [[nodiscard]] const load::step_sizes& steps() const noexcept {
    return steps_;
  }

  /// N — the battery capacity in charge units.
  [[nodiscard]] std::int64_t total_units() const noexcept { return n0_; }

  /// c in permille, as used by the guard of Fig. 5(a).
  [[nodiscard]] std::int64_t c_permille() const noexcept { return c_pm_; }

  /// Steps needed to lower the height difference from m to m - 1 (eq. (6)
  /// divided by T, rounded to nearest). Requires m >= 2 (asserted — this
  /// is the hot-path table lookup of every stepping kernel, so the bounds
  /// check must not be an exception branch).
  [[nodiscard]] std::int64_t recovery_steps(std::int64_t m) const noexcept {
    BSCHED_ASSERT(m >= 2);
    BSCHED_ASSERT(static_cast<std::size_t>(m) < recovery_.size());
    return recovery_[static_cast<std::size_t>(m)];
  }

  /// Empty criterion (eq. (8)): (1000 - c) m >= c n.
  [[nodiscard]] bool is_empty(std::int64_t n, std::int64_t m) const noexcept {
    return (1000 - c_pm_) * m >= c_pm_ * n;
  }

  /// Available charge y1 in permille charge units: c n - (1000 - c) m.
  /// This is the quantity the best-of-two scheduler compares.
  [[nodiscard]] std::int64_t available_permille(std::int64_t n,
                                                std::int64_t m) const noexcept {
    return c_pm_ * n - (1000 - c_pm_) * m;
  }

  /// Continuous-state view of a discrete (n, m) pair:
  /// gamma = n Gamma, delta = m Gamma / c.
  [[nodiscard]] state to_continuous(std::int64_t n, std::int64_t m) const;

  /// Process-unique identity, drawn from a global counter at construction
  /// and shared by copies (which are equal: the class is immutable). The
  /// transition memo behind bank::advance_all keys on it, so a
  /// discretization rebuilt at a freed one's address never sees the old
  /// one's entries. Never 0.
  [[nodiscard]] std::uint64_t serial() const noexcept { return serial_; }

 private:
  std::uint64_t serial_;
  battery_parameters params_;
  load::step_sizes steps_;
  std::int64_t n0_;
  std::int64_t c_pm_;
  std::vector<std::int64_t> recovery_;  // index m, valid from m = 2
};

/// Mutable per-battery state.
struct discrete_state {
  std::int64_t n = 0;                  ///< Total charge units left.
  std::int64_t m = 0;                  ///< Height-difference units.
  std::int64_t recovery_elapsed = 0;   ///< Steps since last recovery tick.
  std::int64_t discharge_elapsed = 0;  ///< Steps since last draw (while on).
  bool empty = false;                  ///< Observed empty; sticky.

  friend bool operator==(const discrete_state&,
                         const discrete_state&) = default;
  auto operator<=>(const discrete_state&) const = default;
};

/// A freshly charged battery: n = N, m = 0.
[[nodiscard]] discrete_state full_discrete(const discretization& d);

/// What happened during one time step.
enum class step_event : std::uint8_t {
  none,  ///< No draw completed this step.
  drew,  ///< A draw completed; the battery is still alive.
  died,  ///< A draw completed and the battery was observed empty.
};

/// Advances `s` by one time step.
/// `rate.steps == 0` (or `s.empty`) means the battery is off: it only
/// recovers. Otherwise it is discharging at the rate of `rate.units` charge
/// units per `rate.steps` steps.
step_event step(const discretization& d, discrete_state& s,
                const load::draw_rate& rate);

/// Outcome of an event-horizon advance: how many time steps were consumed
/// and the step event of the *final* step consumed. `died` is reported at
/// the exact step the battery is observed empty; recovery ticks and
/// non-fatal draws are handled internally and report `none`.
struct advance_result {
  std::int64_t steps;
  step_event event;

  friend bool operator==(const advance_result&,
                         const advance_result&) = default;
};

/// Runs a single battery from full against `trace` and returns its lifetime
/// in minutes (the time of the draw at which it is observed empty).
/// The per-epoch discharge clock is reset at epoch boundaries, mirroring
/// the `c_disch := 0` reset on the go_on edge of Fig. 5(a).
[[nodiscard]] double discrete_lifetime(const discretization& d,
                                       const load::trace& trace,
                                       double horizon_min = 1e6);

}  // namespace bsched::kibam
