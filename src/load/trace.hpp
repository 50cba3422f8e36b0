// Piecewise-constant load traces.
//
// A load is a sequence of epochs (duration, current); see Section 4.1 of the
// paper. Traces consist of an optional finite prefix followed by a cycle
// that repeats forever, which covers both the paper's periodic test loads
// and recovered random sequences (cycled once exhausted).
#pragma once

#include <cstddef>
#include <vector>

namespace bsched::load {

/// One epoch of constant current. `current_a == 0` models an idle period.
struct epoch {
  double duration_min = 0;  ///< Epoch length in minutes, > 0.
  double current_a = 0;     ///< Discharge current in ampere, >= 0.

  friend bool operator==(const epoch&, const epoch&) = default;
};

/// An infinite piecewise-constant load: `prefix` once, then `cycle` forever.
class trace {
 public:
  /// Builds a trace; the cycle must be non-empty (loads are infinite so
  /// that lifetime experiments always terminate on battery exhaustion).
  /// Throws bsched::error on non-positive durations or negative currents.
  trace(std::vector<epoch> prefix, std::vector<epoch> cycle);

  /// Convenience: pure cycle, empty prefix.
  explicit trace(std::vector<epoch> cycle)
      : trace(std::vector<epoch>{}, std::move(cycle)) {}

  /// Epoch by global index (prefix first, then the cycle repeated).
  [[nodiscard]] const epoch& at(std::size_t index) const noexcept;

  [[nodiscard]] const std::vector<epoch>& prefix() const noexcept {
    return prefix_;
  }
  [[nodiscard]] const std::vector<epoch>& cycle() const noexcept {
    return cycle_;
  }

  /// Total duration of the prefix / one cycle, in minutes.
  [[nodiscard]] double prefix_minutes() const noexcept {
    return prefix_minutes_;
  }
  [[nodiscard]] double cycle_minutes() const noexcept {
    return cycle_minutes_;
  }

  /// Largest current occurring anywhere in the trace.
  [[nodiscard]] double peak_current() const noexcept { return peak_; }

  friend bool operator==(const trace&, const trace&) = default;

 private:
  std::vector<epoch> prefix_;
  std::vector<epoch> cycle_;
  double prefix_minutes_ = 0;
  double cycle_minutes_ = 0;
  double peak_ = 0;
};

/// Walks the epochs of a trace in order, without end.
class epoch_cursor {
 public:
  explicit epoch_cursor(const trace& t) noexcept : trace_(&t) {}

  [[nodiscard]] const epoch& current() const noexcept {
    return trace_->at(index_);
  }
  [[nodiscard]] std::size_t index() const noexcept { return index_; }
  /// Start time of the current epoch in minutes.
  [[nodiscard]] double start_min() const noexcept { return start_min_; }

  void advance() noexcept {
    start_min_ += current().duration_min;
    ++index_;
  }

 private:
  const trace* trace_;
  std::size_t index_ = 0;
  double start_min_ = 0;
};

}  // namespace bsched::load
