#include "util/clock.hpp"

namespace bsched::util {

monotonic_clock::time_point monotonic_clock::now() const noexcept {
  return std::chrono::steady_clock::now();
}

const monotonic_clock& monotonic_clock::system() noexcept {
  static const monotonic_clock instance;
  return instance;
}

}  // namespace bsched::util
