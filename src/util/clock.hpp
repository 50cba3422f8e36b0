// The repo's single monotonic-time seam.
//
// svc deadlines (lease expiry, heartbeat cadence, dial timeouts) and the
// telemetry emission interval all need "now" from a steady clock — and
// tests need to move that clock by hand instead of sleeping. Code that
// cares about elapsed time takes a `const monotonic_clock&` (defaulting
// to monotonic_clock::system()) and calls now(); tests substitute a
// hand-moved clock (tests/support/manual_clock.hpp).
#pragma once

#include <chrono>

namespace bsched::util {

/// Monotonic "now" as an overridable seam. The default implementation is
/// std::chrono::steady_clock.
class monotonic_clock {
 public:
  using duration = std::chrono::steady_clock::duration;
  using time_point = std::chrono::steady_clock::time_point;

  monotonic_clock() = default;
  virtual ~monotonic_clock() = default;
  monotonic_clock(const monotonic_clock&) = delete;
  monotonic_clock& operator=(const monotonic_clock&) = delete;

  [[nodiscard]] virtual time_point now() const noexcept;

  /// The process-wide steady-clock instance (what callers get when they
  /// don't inject one).
  [[nodiscard]] static const monotonic_clock& system() noexcept;
};

}  // namespace bsched::util
