// The test double of the util::monotonic_clock seam: a clock that only
// moves when told to, so svc tests force lease expiries and heartbeat
// cadences without sleeping.
#pragma once

#include <atomic>

#include "util/clock.hpp"

namespace bsched::support {

/// Starts at the steady-clock epoch and only moves on advance().
/// Thread-safe (svc tests advance it while the coordinator polls).
class manual_clock final : public util::monotonic_clock {
 public:
  [[nodiscard]] time_point now() const noexcept override {
    return time_point{duration{since_epoch_.load(std::memory_order_acquire)}};
  }

  void advance(duration d) noexcept {
    since_epoch_.fetch_add(d.count(), std::memory_order_acq_rel);
  }

 private:
  std::atomic<duration::rep> since_epoch_{0};
};

}  // namespace bsched::support
