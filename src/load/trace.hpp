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

  /// Largest current occurring anywhere in the trace.
  [[nodiscard]] double peak_current() const noexcept { return peak_; }

  friend bool operator==(const trace&, const trace&) = default;

 private:
  std::vector<epoch> prefix_;
  std::vector<epoch> cycle_;
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

  void advance() noexcept { ++index_; }

 private:
  const trace* trace_;
  std::size_t index_ = 0;
};

}  // namespace bsched::load
