#include "load/trace.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace bsched::load {

namespace {

/// Runs once per epoch of every trace built (each stochastic sweep item
/// materializes one), so the messages are built only on failure. The
/// negated comparisons keep NaN fields rejected.
void validate(const std::vector<epoch>& epochs, const char* what) {
  for (const epoch& e : epochs) {
    if (!(e.duration_min > 0)) {
      throw error(std::string(what) + ": epoch durations must be positive");
    }
    if (!(e.current_a >= 0)) {
      throw error(std::string(what) + ": currents must be non-negative");
    }
  }
}

}  // namespace

trace::trace(std::vector<epoch> prefix, std::vector<epoch> cycle)
    : prefix_(std::move(prefix)), cycle_(std::move(cycle)) {
  require(!cycle_.empty(), "trace: cycle must be non-empty");
  validate(prefix_, "trace prefix");
  validate(cycle_, "trace cycle");
  for (const epoch& e : prefix_) peak_ = std::max(peak_, e.current_a);
  for (const epoch& e : cycle_) peak_ = std::max(peak_, e.current_a);
}

const epoch& trace::at(std::size_t index) const noexcept {
  if (index < prefix_.size()) return prefix_[index];
  return cycle_[(index - prefix_.size()) % cycle_.size()];
}

}  // namespace bsched::load
