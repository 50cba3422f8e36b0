// Renders a src/obs telemetry exposition as human-readable summary
// tables.
//
//   $ ./obs_report --metrics FILE           # "bsched-telemetry v1" file
//
// --metrics prints the counters, gauges and histograms of a telemetry
// exposition file (sweep_serve --metrics-out, or any encode_telemetry_str
// output). Chrome-trace span exports are summarized by
// scripts/trace_summary.py (total, mean and self time per span name).
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "obs/telemetry.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "util/wire.hpp"

namespace {

int report_metrics(const std::string& path) {
  std::ifstream in{path};
  bsched::require(in.good(), "obs_report: cannot open " + path);
  const bsched::obs::snapshot snap =
      bsched::obs::decode_telemetry_str(bsched::wire::read_all(in));

  if (!snap.counters.empty()) {
    bsched::text_table t{{"counter", "value"}};
    for (const auto& c : snap.counters) {
      t.row({c.name, std::to_string(c.value)});
    }
    std::printf("%s\n", t.str().c_str());
  }
  if (!snap.gauges.empty()) {
    bsched::text_table t{{"gauge", "value"}};
    for (const auto& g : snap.gauges) {
      t.row({g.name, bsched::format_double(g.value, 6)});
    }
    std::printf("%s\n", t.str().c_str());
  }
  if (!snap.histograms.empty()) {
    bsched::text_table t{{"histogram", "count", "sum", "mean", "buckets"}};
    for (const auto& h : snap.histograms) {
      const std::uint64_t n = h.count();
      std::string buckets;
      for (std::size_t i = 0; i < h.buckets.size(); ++i) {
        if (!buckets.empty()) buckets += ' ';
        const std::string le =
            i < h.bounds.size() ? bsched::format_double(h.bounds[i], 6)
                                : std::string{"inf"};
        buckets += "le=" + le + ":" + std::to_string(h.buckets[i]);
      }
      t.row({h.name, std::to_string(n), bsched::format_double(h.sum, 6),
             n > 0 ? bsched::format_double(h.sum / static_cast<double>(n), 6)
                   : "-",
             buckets});
    }
    std::printf("%s\n", t.str().c_str());
  }
  std::printf("%zu counter(s), %zu gauge(s), %zu histogram(s)\n",
              snap.counters.size(), snap.gauges.size(),
              snap.histograms.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3 || std::string{argv[1]} != "--metrics") {
    std::fprintf(stderr, "usage: obs_report --metrics FILE\n");
    return 2;
  }
  try {
    return report_metrics(argv[2]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs_report: %s\n", e.what());
    return 1;
  }
}
