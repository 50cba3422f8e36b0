// Job-structured loads and the ten test loads of Section 5.
//
// The paper drives an Itsy pocket computer with 1-minute jobs at 250 mA
// (low) or 500 mA (high), separated by idle periods of 0 (CL), 1 (ILs) or
// 2 (ILl) minutes. Alternating loads start with the high job, and the two
// "random" loads use fixed low/high sequences recovered from the published
// lifetimes (see DESIGN.md).
#pragma once

#include <string>
#include <vector>

#include "load/trace.hpp"

namespace bsched::load {

/// Job currents used throughout the paper's evaluation (ampere).
inline constexpr double low_current_a = 0.25;
inline constexpr double high_current_a = 0.5;
/// Length of one job, minutes.
inline constexpr double job_minutes = 1.0;

/// A load built from equal-length jobs with fixed idle gaps in between.
struct job_sequence {
  std::vector<double> currents;  ///< One entry per job, cycled forever.
  double job_min = job_minutes;  ///< Duration of each job.
  double idle_min = 0;           ///< Idle period after each job.

  /// Expands to a trace: [job, idle?, job, idle?, ...] cycled.
  [[nodiscard]] trace to_trace() const;
};

/// The paper's test loads (Tables 3-5).
enum class test_load {
  cl_250,   ///< continuous, low jobs only
  cl_500,   ///< continuous, high jobs only
  cl_alt,   ///< continuous, alternating high/low
  ils_250,  ///< 1-min idle, low jobs
  ils_500,  ///< 1-min idle, high jobs
  ils_alt,  ///< 1-min idle, alternating high/low
  ils_r1,   ///< 1-min idle, recovered random sequence 1
  ils_r2,   ///< 1-min idle, recovered random sequence 2
  ill_250,  ///< 2-min idle, low jobs
  ill_500,  ///< 2-min idle, high jobs
};

/// All ten test loads in the row order of Tables 3-5.
[[nodiscard]] const std::vector<test_load>& all_test_loads();

/// Paper-style display name, e.g. "ILs alt".
[[nodiscard]] std::string name(test_load l);

/// The trace of a test load: its job sequence, cycled. The two random
/// loads cycle the low/high sequences recovered from the published
/// lifetimes once an experiment outlives them.
[[nodiscard]] trace paper_trace(test_load l);

}  // namespace bsched::load
