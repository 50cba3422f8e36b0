// Paper-style rendering of experiment results: the capacity and
// discretization benches print these tables, and the Table 3/4 benches
// format their cells with fmt_min/fmt_pct.
#pragma once

#include <string>

#include "exp/experiments.hpp"
#include "util/table.hpp"

namespace bsched::exp {

/// Renders the residual-charge sweep of Section 6.
[[nodiscard]] text_table residual_report(
    const std::vector<residual_point>& rows);

/// Renders the discretization ablation.
[[nodiscard]] text_table ablation_report(
    const std::vector<ablation_point>& rows);

/// Formats minutes with the paper's two decimal places.
[[nodiscard]] std::string fmt_min(double minutes);
/// Formats a percentage with one decimal place (paper style).
[[nodiscard]] std::string fmt_pct(double percent);

}  // namespace bsched::exp
