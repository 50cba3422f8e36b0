#include "exp/report.hpp"

#include <cstdio>

#include "util/csv.hpp"

namespace bsched::exp {

std::string fmt_min(double minutes) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", minutes);
  return buf;
}

std::string fmt_pct(double percent) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", percent);
  return buf;
}

text_table residual_report(const std::vector<residual_point>& rows) {
  text_table table{{"capacity scale", "capacity (Amin)", "lifetime (min)",
                    "residual charge %"}};
  for (const residual_point& r : rows) {
    table.row({format_double(r.scale, 2), fmt_min(r.capacity_amin),
               fmt_min(r.lifetime_min),
               fmt_pct(100.0 * r.residual_fraction)});
  }
  return table;
}

text_table ablation_report(const std::vector<ablation_point>& rows) {
  text_table table{{"charge unit (Amin)", "time step (min)",
                    "dKiBaM (min)", "KiBaM (min)", "error %"}};
  for (const ablation_point& r : rows) {
    table.row({format_double(r.charge_unit_amin, 4),
               format_double(r.time_step_min, 4), fmt_min(r.discrete_min),
               fmt_min(r.analytic_min), fmt_pct(r.error_percent)});
  }
  return table;
}

}  // namespace bsched::exp
