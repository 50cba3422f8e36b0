// Reference for the sweep statistics' rank rule: a plain scan over the
// sorted samples, independent of api::value_counts' (value, count)
// entries, so the property tests can check the two against each other.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace bsched::support {

/// Quantile q of `sorted` (ascending, non-empty): sample i sits at rank
/// i + 0.5, the q-quantile at rank q * size, interpolated linearly
/// between the samples either side and clamped to the first and last.
inline double sorted_quantile(const std::vector<double>& sorted, double q) {
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const double rank = static_cast<double>(i) + 0.5;
    if (target < rank) {
      if (i == 0) return sorted.front();
      const double t = target - (rank - 1.0);
      return sorted[i - 1] + t * (sorted[i] - sorted[i - 1]);
    }
  }
  return sorted.back();
}

}  // namespace bsched::support
