// Coordinator CLI of the fault-tolerant sweep service (src/svc): serves
// the replicated random-load demo grid (tools/sweep_common.hpp) to a
// fleet of `sweep_worker --connect` processes, survives worker crashes
// by re-leasing their item ranges, and writes the merged per-cell
// statistics — grid in, CSV out, same columns as scenario_sweep --csv.
//
//   $ ./sweep_serve [--replications R] [--port P] [--port-file PATH]
//                   [--workers-expected N] [--lease-timeout S]
//                   [--lease-items K] [--chunk C] [--deadline S]
//                   [--csv FILE] [--agg FILE] [--no-steal] [--quiet]
//                   [--metrics-out FILE] [--metrics-interval MS]
//
// --agg writes the merged aggregate in dist::codec form, so
// `sweep_merge --csv merged.csv served.agg && cmp merged.csv ref.csv`
// re-checks the service run against a single-process reference — the
// CI crash-recovery smoke.
//
// --metrics-out rewrites FILE with the fleet-wide "bsched-telemetry v1"
// exposition (coordinator counters/gauges, per-worker accepted-item
// totals, each worker's heartbeat-piggybacked snapshot) every
// --metrics-interval milliseconds (default 1000) and once on
// completion; `obs_report --metrics FILE` renders it as a table. The
// same interval paces the workers' snapshots: one on each lease's first
// heartbeat, then at most one per interval.
//
// --port 0 (the default) binds an ephemeral port; --port-file writes the
// bound port as a line of text so scripts can discover it. --deadline is
// the hard wall-clock budget (seconds; 0 = unlimited) after which the
// coordinator gives up instead of waiting for workers that never come.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "dist/codec.hpp"
#include "dist/shard.hpp"
#include "obs/telemetry.hpp"
#include "svc/coordinator.hpp"
#include "sweep_common.hpp"
#include "util/error.hpp"

namespace {

double cli_seconds(const std::string& flag, const std::string& text) {
  try {
    std::size_t end = 0;
    const double v = std::stod(text, &end);
    if (end == text.size() && v >= 0) return v;
  } catch (const std::exception&) {
  }
  std::fprintf(stderr, "%s: not a non-negative number of seconds: '%s'\n",
               flag.c_str(), text.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bsched;

  std::size_t replications = 30;
  std::string csv_path;
  std::string agg_path;
  std::string port_file;
  std::string metrics_path;
  std::size_t metrics_interval_ms = 1000;
  svc::coordinator_options opts;
  opts.lease_timeout_s = 30.0;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--replications") {
      replications = tools::cli_number(arg, value());
    } else if (arg == "--port") {
      const std::size_t port = tools::cli_number(arg, value());
      if (port > 65535) {
        std::fprintf(stderr, "sweep_serve: --port must be 0..65535\n");
        return 2;
      }
      opts.port = static_cast<std::uint16_t>(port);
    } else if (arg == "--port-file") {
      port_file = value();
    } else if (arg == "--workers-expected") {
      opts.workers_expected = tools::cli_number(arg, value());
    } else if (arg == "--lease-timeout") {
      opts.lease_timeout_s = cli_seconds(arg, value());
    } else if (arg == "--lease-items") {
      opts.lease_items = tools::cli_number(arg, value());
    } else if (arg == "--chunk") {
      opts.chunk_items = tools::cli_number(arg, value());
    } else if (arg == "--deadline") {
      opts.deadline_s = cli_seconds(arg, value());
    } else if (arg == "--csv") {
      csv_path = value();
    } else if (arg == "--agg") {
      agg_path = value();
    } else if (arg == "--no-steal") {
      opts.steal = false;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--metrics-out") {
      metrics_path = value();
    } else if (arg == "--metrics-interval") {
      metrics_interval_ms = tools::cli_number(arg, value());
    } else {
      std::fprintf(stderr,
                   "usage: sweep_serve [--replications R] [--port P] "
                   "[--port-file PATH] [--workers-expected N] "
                   "[--lease-timeout S] [--lease-items K] [--chunk C] "
                   "[--deadline S] [--csv FILE] [--agg FILE] [--no-steal] "
                   "[--quiet] [--metrics-out FILE] [--metrics-interval MS]"
                   "\n");
      return 2;
    }
  }
  if (replications == 0) {
    std::fprintf(stderr, "sweep_serve: --replications must be at least 1\n");
    return 2;
  }
  if (opts.workers_expected == 0) {
    std::fprintf(stderr,
                 "sweep_serve: --workers-expected must be at least 1\n");
    return 2;
  }
  if (opts.lease_timeout_s <= 0) {
    std::fprintf(stderr, "sweep_serve: --lease-timeout must be positive\n");
    return 2;
  }

  if (metrics_interval_ms == 0) {
    std::fprintf(stderr, "sweep_serve: --metrics-interval must be positive\n");
    return 2;
  }

  try {
    if (!quiet) opts.log = &std::cerr;
    if (!metrics_path.empty()) {
      opts.telemetry_interval_s =
          static_cast<double>(metrics_interval_ms) / 1000.0;
      opts.on_telemetry = [metrics_path](const obs::snapshot& snap) {
        // Rewrite in place each emission; readers see the latest
        // complete exposition (writes are small; last write wins).
        std::ofstream out{metrics_path, std::ios::trunc};
        if (!out.good()) {
          std::fprintf(stderr, "sweep_serve: cannot write %s\n",
                       metrics_path.c_str());
          return;
        }
        out << obs::encode_telemetry_str(snap) << std::flush;
        require(out.good(),
                "sweep_serve: writing " + metrics_path + " failed");
      };
    }
    svc::coordinator coord{tools::demo_sweep(replications), std::move(opts)};
    std::fprintf(stderr, "sweep_serve: listening on port %u\n",
                 static_cast<unsigned>(coord.port()));
    if (!port_file.empty()) {
      std::ofstream out{port_file};
      out << coord.port() << '\n';
      if (!out.good()) {
        std::fprintf(stderr, "sweep_serve: cannot write %s\n",
                     port_file.c_str());
        return 1;
      }
    }

    const dist::shard_aggregate merged = coord.run();
    const std::vector<api::cell_summary> cells = dist::summaries(merged);
    const svc::coordinator_counters& c = coord.counters();
    std::printf(
        "sweep service complete: %zu cells x %zu replications from %zu "
        "worker(s)\n%zu lease(s) folded, %zu expired, %zu re-queued on "
        "disconnect, %zu steal(s), %zu stale result(s) rejected\n\n",
        static_cast<std::size_t>(merged.grid_cells),
        static_cast<std::size_t>(merged.replications), c.workers_seen,
        c.results_accepted, c.expired, c.requeued_disconnect, c.steals,
        c.results_rejected);
    tools::print_summary_table(cells);
    if (!csv_path.empty()) tools::write_summary_csv(csv_path, cells);
    if (!agg_path.empty()) dist::write_file(merged, agg_path);
    return merged.stats.failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_serve: %s\n", e.what());
    return 1;
  }
}
