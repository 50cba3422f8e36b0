// Worker of the distributed sweep pipeline, in one of two modes.
//
// File mode (the original shard pipeline): runs shard K of N of the
// replicated random-load demo grid (tools/sweep_common.hpp — the same
// grid examples/scenario_sweep evaluates) and emits the shard's
// mergeable per-cell aggregates through dist::codec.
//
//   $ ./sweep_worker --shard K --of N [--replications R] [--threads T]
//                    [--out FILE]
//
// --threads defaults to 0 here (hardware concurrency): a shard is one
// long run_sweep call.
//
// The aggregate goes to FILE (or stdout with "-" / no --out; progress
// then moves to stderr). Feed N such files to sweep_merge to reproduce
// the single-process scenario_sweep statistics.
//
// Service mode: joins a sweep_serve coordinator, receives the sweep
// definition over the wire (no compiled-in grid — --replications is
// ignored) and runs leases until the campaign completes.
//
//   $ ./sweep_worker --connect HOST:PORT [--name NAME] [--threads T]
//                    [--quiet]
//
// --threads defaults to 1 here: a lease arrives in chunks of a few items,
// and starting a pool of fresh threads (each with a cold transition memo)
// costs more than such a chunk takes on one thread.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "api/engine.hpp"
#include "dist/codec.hpp"
#include "dist/shard.hpp"
#include "svc/worker.hpp"
#include "sweep_common.hpp"
#include "util/error.hpp"

namespace {

using namespace bsched;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: sweep_worker --shard K --of N [--replications R] "
               "[--threads T] [--out FILE]\n"
               "       sweep_worker --connect HOST:PORT [--name NAME] "
               "[--threads T] [--quiet]\n");
  std::exit(2);
}

/// One-line argument diagnostics, applied up front in both modes —
/// before any grid is built or socket dialed.
[[noreturn]] void reject(const std::string& why) {
  std::fprintf(stderr, "sweep_worker: %s\n", why.c_str());
  std::exit(2);
}

struct connect_target {
  std::string host;
  std::uint16_t port = 0;
};

connect_target parse_connect(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == text.size()) {
    reject("--connect expects HOST:PORT, got '" + text + "'");
  }
  connect_target t;
  t.host = text.substr(0, colon);
  const std::size_t port =
      tools::cli_number("--connect port", text.substr(colon + 1));
  if (port == 0 || port > 65535) {
    reject("--connect port must be 1..65535, got '" + text.substr(colon + 1) +
           "'");
  }
  t.port = static_cast<std::uint16_t>(port);
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::size_t replications = 30;
  std::optional<std::size_t> threads;
  std::string out_path = "-";
  std::string connect;
  std::string name = "worker";
  bool have_shard = false;
  bool have_of = false;
  bool have_out = false;
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
    if (arg == "--shard") {
      shard_index = tools::cli_number(arg, value());
      have_shard = true;
    } else if (arg == "--of") {
      shard_count = tools::cli_number(arg, value());
      have_of = true;
    } else if (arg == "--replications") {
      replications = tools::cli_number(arg, value());
    } else if (arg == "--threads") {
      threads = tools::cli_number(arg, value());
    } else if (arg == "--out") {
      out_path = value();
      have_out = true;
    } else if (arg == "--connect") {
      connect = value();
    } else if (arg == "--name") {
      name = value();
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      usage();
    }
  }

  // Up-front validation, shared between the two modes: every rejected
  // combination dies here with a one-line diagnostic, before any work.
  if (!connect.empty()) {
    if (have_shard || have_of) {
      reject("--shard/--of are file-mode flags; the coordinator assigns "
             "ranges in --connect mode");
    }
    if (have_out) {
      reject("--out is a file-mode flag; results stream to the coordinator "
             "in --connect mode");
    }
  } else {
    if (!have_shard || !have_of) {
      reject("need --shard K --of N (or --connect HOST:PORT)");
    }
    if (shard_count == 0) reject("--of must be at least 1, got 0");
    if (shard_index >= shard_count) {
      reject("--shard must be below --of, got K=" +
             std::to_string(shard_index) + ", N=" +
             std::to_string(shard_count));
    }
    if (out_path.empty()) {
      reject("--out needs a non-empty path ('-' writes to stdout)");
    }
  }

  // 0 = hardware concurrency; see the header comment for the defaults.
  const std::size_t n_threads = threads.value_or(connect.empty() ? 0 : 1);

  try {
    const api::engine engine;
    if (!connect.empty()) {
      const connect_target target = parse_connect(connect);
      svc::worker_options opts;
      opts.host = target.host;
      opts.port = target.port;
      opts.name = name;
      opts.n_threads = n_threads;
      if (!quiet) opts.log = &std::cerr;
      const svc::worker_report report = svc::run_worker(engine, opts);
      std::fprintf(stderr,
                   "sweep_worker: %s done — %zu lease(s) folded, %zu "
                   "rejected, %zu item(s), %zu trim(s)\n",
                   name.c_str(), report.leases, report.rejected, report.items,
                   report.trims);
      return 0;
    }

    const api::sweep sweep = tools::demo_sweep(replications);
    const dist::shard sh =
        dist::plan_shard(sweep, shard_index, shard_count);
    std::fprintf(stderr,
                 "sweep_worker: shard %zu/%zu — items [%zu, %zu) of %zu "
                 "(%zu cells x %zu replications)\n",
                 shard_index, shard_count, sh.first, sh.last,
                 sweep.cells.size() * sweep.replications,
                 sweep.cells.size(), sweep.replications);

    const dist::shard_aggregate agg =
        dist::run_shard(engine, sh, n_threads);
    if (out_path == "-") {
      std::cout << dist::encode_str(agg);
    } else {
      dist::write_file(agg, out_path);
      std::fprintf(stderr, "sweep_worker: wrote %s (%zu runs, %zu failures)\n",
                   out_path.c_str(), agg.stats.runs, agg.stats.failures);
    }
    return agg.stats.failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_worker: %s\n", e.what());
    return 1;
  }
}
