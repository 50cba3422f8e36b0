#!/usr/bin/env bash
# CI entry point. Flavours:
#   debug      — Debug build, warnings-as-errors, full test suite;
#   release    — optimized Release build, full test suite plus smoke runs
#                of the examples/benches, byte compares of the Table 3,
#                Table 5 and Figure 6 outputs against tests/golden/, the
#                observability smoke (the service's telemetry exposition
#                and a traced sweep must parse through their readers)
#                and the perf gate — run
#                twice when google-benchmark is present: the default
#                obs-on build and a BSCHED_OBS=OFF build, both against
#                the same committed baseline, so the "macros compile to
#                nothing" guarantee is load-bearing, not aspirational;
#   asan-ubsan — AddressSanitizer + UndefinedBehaviorSanitizer build,
#                full test suite (leak detection on, first report fatal);
#   tsan       — ThreadSanitizer build; runs the concurrency-heavy
#                suites, with the Stress suite (tests/test_stress.cpp)
#                as the headline — racy-by-construction schedules that
#                exist to give TSan something to bite. No perf gate:
#                sanitizer timing is meaningless;
#   lint       — the project lint (scripts/lint_bsched.py, self-test
#                first) and the perf-gate regression tests;
#   tidy       — clang-tidy over src/ tools/ tests/ (scripts/tidy.sh).
# With no argument every flavour runs in sequence.
#
# ccache is used automatically when installed (the GitHub workflow
# caches it across runs to keep the five-build matrix affordable).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_PREFIX="${BUILD_PREFIX:-build-ci}"
JOBS="${JOBS:-$(nproc)}"

# One EXIT trap owns every temp dir and background process the smoke
# steps create: a step failing mid-way must not leak mktemp dirs or
# stray sweep_serve/sweep_worker processes into the CI box (or the
# developer's machine). Steps register into these arrays instead of
# cleaning up ad hoc.
CLEANUP_DIRS=()
CLEANUP_PIDS=()
cleanup() {
  local status=$? pid dir f
  for pid in "${CLEANUP_PIDS[@]}"; do
    kill -9 "$pid" 2> /dev/null || true
  done
  # Reap everything we killed (and any smoke background jobs) so no
  # zombie outlives the script.
  wait 2> /dev/null || true
  # On failure, surface the smoke logs before deleting them — most
  # smoke commands redirect stderr into the temp dirs, so without this
  # a failing step leaves no trace in the CI output.
  if [ "$status" -ne 0 ]; then
    for dir in "${CLEANUP_DIRS[@]}"; do
      for f in "$dir"/*.log; do
        [ -f "$f" ] && { echo "=== $f ==="; tail -40 "$f"; } >&2
      done
    done
  fi
  for dir in "${CLEANUP_DIRS[@]}"; do
    rm -rf "$dir"
  done
}
trap cleanup EXIT

tmpdir() {
  local dir
  dir="$(mktemp -d)"
  CLEANUP_DIRS+=("$dir")
  echo "$dir"
}

CCACHE_FLAG=()
if command -v ccache > /dev/null 2>&1; then
  CCACHE_FLAG=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

configure_and_build() {
  local dir="$1" build_type="$2"
  shift 2
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE="$build_type" -DBSCHED_WERROR=ON \
    "${CCACHE_FLAG[@]}" "$@"
  cmake --build "$dir" -j "$JOBS"
}

build_and_test() {
  local flavour="$1" build_type="$2"
  local dir="$BUILD_PREFIX-$flavour"
  configure_and_build "$dir" "$build_type"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

run_debug() {
  build_and_test debug Debug
}

run_asan_ubsan() {
  local dir="$BUILD_PREFIX-asan"
  # RelWithDebInfo: optimized enough to finish quickly, debug info for
  # readable reports. -fno-sanitize-recover (set by BSCHED_SANITIZE)
  # plus halt_on_error make the first finding fatal.
  configure_and_build "$dir" RelWithDebInfo \
    -DBSCHED_SANITIZE=address,undefined
  ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1:halt_on_error=1" \
    UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

run_tsan() {
  local dir="$BUILD_PREFIX-tsan"
  configure_and_build "$dir" RelWithDebInfo -DBSCHED_SANITIZE=thread
  # The stress suite is the point of this flavour — run it first and
  # standalone (fail loudly if the filter ever goes empty; StressKibam
  # runs rollouts and searches over the per-thread transition memos of
  # bank::advance_all on an 8-thread pool), then the rest of the
  # concurrency surface: the sweep pool and its combining delivery flush
  # (SweepDelivery: grid order, one sink entrant at a time, a throwing
  # sink), the per-thread bank slot in front of the engine's bank cache
  # (SweepBankIdentity), the svc fleet, the net framing,
  # the worker's heartbeat cadence and lease liveness (SvcHeartbeat), the
  # item ranges of run_sweep (SweepRange), the api engine's
  # thread-count-independence tests, the exact search
  # (concurrent searches on the sweep pool, each with its own memo), the
  # transition memo's differential tests (BankAdvanceAll) and the
  # allocation counts (their operator new replacement must hold under
  # the TSan runtime too, and two of them start a thread).
  TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
    ctest --test-dir "$dir" -R "Stress" --no-tests=error \
    --output-on-failure -j "$JOBS"
  TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
    ctest --test-dir "$dir" \
    -R "Svc|Sweep|Api|Dist|Net|Obs|Opt|BankAdvanceAll|Alloc" \
    --no-tests=error --output-on-failure -j "$JOBS"
}

run_lint() {
  # The lint checks itself before it checks the tree; the regression
  # tests of the perf gate and the trace summary ride in this flavour too
  # (pure python, no build).
  python3 scripts/lint_bsched.py --self-test
  python3 scripts/lint_bsched.py
  python3 tests/test_bench_gate.py
  python3 tests/test_trace_summary.py
}

run_tidy() {
  ./scripts/tidy.sh
}

run_release() {
  build_and_test release Release
  local dir="$BUILD_PREFIX-release"
  # Thread-count independence of the sweep aggregates, exercised both
  # ways: the Sweep* suites once with ctest parallelism forced off, and
  # once scheduled in parallel (-j), so a scheduling-dependent aggregate
  # can't slip through on either path.
  CTEST_PARALLEL_LEVEL=1 ctest --test-dir "$dir" -R Sweep \
    --no-tests=error --output-on-failure
  ctest --test-dir "$dir" -R Sweep --no-tests=error --output-on-failure \
    -j "$JOBS"
  # The exact-search and rollout suites re-run optimized: the search
  # golden regressions (Table 5 node counts, lookahead decision vectors)
  # and the online-rollout hot path must hold under -O2, not just in the
  # Debug flavour. The concurrency stress schedules re-run optimized
  # too (they also run under TSan in the tsan flavour).
  ctest --test-dir "$dir" -R "Opt|Lookahead|Stress" --no-tests=error \
    --output-on-failure -j "$JOBS"
  # Fleet determinism guard: the fleet tests that need every worker to
  # take part hold each worker at its first chunk (worker_options::clock)
  # instead of racing it, and the heartbeat tests drive the worker's
  # cadence and the lease-timeout liveness on manual clocks, so they must
  # pass every time, not most times. The sweep's delivery contract under
  # load (SweepDelivery) and the bank slot's identity rules
  # (SweepBankIdentity) ride along: a lost or doubled flush shows up
  # only in some interleavings. The fleet tests take under two seconds
  # for a hundred repetitions, the delivery tests under a minute.
  "$dir/bsched_tests" --gtest_brief=1 --gtest_repeat=100 \
    --gtest_filter='SvcService.ThreeWorker*:SvcService.Straggler*:ObsFleet.*:SvcHeartbeat.*:SweepDelivery.*:SweepBankIdentity.*'
  # Smoke runs: the replicated-sweep example must agree across thread
  # counts (exits non-zero when the multi-threaded aggregates mismatch
  # the single-threaded reference), the lookahead ablation must complete (exercising the rollout hot path end to end),
  # lamp_pta must print its pinned optimum, and the microbenchmarks must
  # run (quick settings — this guards against crashes and lets gross
  # regressions show up in the CI log, not a perf gate).
  "$dir/scenario_sweep" --threads 4 --replications 10
  # Distributed-sweep equivalence smoke: three shard workers, merged
  # through the dist::codec files, must reproduce the single-process
  # scenario_sweep statistics (sweep_merge --expect exits non-zero on
  # any column but cache_hits that differs as a string) — this pins the
  # codec format and the shard/merge path end to end.
  local shard_dir
  shard_dir="$(tmpdir)"
  "$dir/scenario_sweep" --threads 2 --replications 10 \
    --csv "$shard_dir/ref.csv" > /dev/null
  for k in 0 1 2; do
    "$dir/sweep_worker" --shard "$k" --of 3 --replications 10 --threads 2 \
      --out "$shard_dir/shard$k.agg"
  done
  # The stdout form is the same document as the file form: shard 0 again,
  # to stdout, byte for byte.
  "$dir/sweep_worker" --shard 0 --of 3 --replications 10 --threads 2 \
    2> /dev/null | cmp - "$shard_dir/shard0.agg"
  "$dir/sweep_merge" --expect "$shard_dir/ref.csv" "$shard_dir"/shard*.agg \
    > /dev/null
  # A stale file is refused end to end: shard 0 with its magic line
  # rewritten to version 0 must make sweep_merge exit non-zero, naming
  # the bad magic on line 1. The version is matched by pattern, so a
  # format bump needs no edit here.
  sed '1s/ v[0-9]*$/ v0/' "$shard_dir/shard0.agg" > "$shard_dir/stale.agg"
  if "$dir/sweep_merge" "$shard_dir/stale.agg" "$shard_dir/shard1.agg" \
    "$shard_dir/shard2.agg" > /dev/null 2> "$shard_dir/stale.log"; then
    echo "ci: sweep_merge accepted a stale shard file" >&2
    exit 1
  fi
  grep -q "bad magic" "$shard_dir/stale.log"
  grep -q "line 1" "$shard_dir/stale.log"
  # Sweep-service crash-recovery smoke: a coordinator plus three live
  # workers, one of which is kill -9'ed right after its first lease is
  # granted (gated on the coordinator log so the kill always lands
  # mid-campaign). The coordinator must re-queue the dead worker's range
  # (asserted from the log) and the merged aggregate must still match
  # the single-process reference through sweep_merge --expect. Every
  # background PID registers with the EXIT trap, so a failure anywhere
  # in this block leaves no stray serve/worker processes behind.
  local svc_dir serve_pid victim_pid port
  svc_dir="$(tmpdir)"
  "$dir/scenario_sweep" --threads 2 --replications 300 \
    --csv "$svc_dir/ref.csv" > /dev/null
  "$dir/sweep_serve" --replications 300 --port 0 \
    --port-file "$svc_dir/port" --workers-expected 3 --lease-timeout 2 \
    --lease-items 500 --chunk 5 --deadline 120 --agg "$svc_dir/svc.agg" \
    --metrics-out "$svc_dir/metrics.txt" --metrics-interval 200 \
    > /dev/null 2> "$svc_dir/serve.log" &
  serve_pid=$!
  CLEANUP_PIDS+=("$serve_pid")
  for _ in $(seq 1 100); do [ -s "$svc_dir/port" ] && break; sleep 0.1; done
  port="$(cat "$svc_dir/port")"
  "$dir/sweep_worker" --connect "127.0.0.1:$port" --name victim --quiet \
    2> /dev/null &
  victim_pid=$!
  CLEANUP_PIDS+=("$victim_pid")
  for _ in $(seq 1 750); do
    grep -q -- "-> worker 'victim'" "$svc_dir/serve.log" && break
    sleep 0.02
  done
  # The kill must land mid-lease or there is nothing to recover from;
  # fail loudly (with the log) rather than let the re-queue assertion
  # below fail bare when a loaded box delays the handshake past the gate.
  grep -q -- "-> worker 'victim'" "$svc_dir/serve.log" || {
    echo "ci: victim worker never granted a lease within the gate" >&2
    exit 1
  }
  kill -9 "$victim_pid"
  "$dir/sweep_worker" --connect "127.0.0.1:$port" --name w1 --quiet \
    2> /dev/null &
  CLEANUP_PIDS+=("$!")
  "$dir/sweep_worker" --connect "127.0.0.1:$port" --name w2 --quiet \
    2> /dev/null &
  CLEANUP_PIDS+=("$!")
  wait "$serve_pid"
  wait || true  # reap the killed victim without failing the script
  grep -Eq "[1-9][0-9]* lease\(s\) re-queued" "$svc_dir/serve.log"
  "$dir/sweep_merge" --expect "$svc_dir/ref.csv" "$svc_dir/svc.agg" \
    > /dev/null
  # And byte for byte: the fleet's merged CSV is the single-process CSV
  # (the demo grid's cells are all stochastic, so cache_hits is 0 in both).
  "$dir/sweep_merge" --csv "$svc_dir/svc.csv" "$svc_dir/svc.agg" > /dev/null
  cmp "$svc_dir/svc.csv" "$svc_dir/ref.csv"
  # Observability smoke: the fleet run above also wrote its telemetry
  # exposition; it must parse (obs_report's strict decoder) and carry the
  # coordinator's item accounting. Then a traced sweep must produce a
  # chrome-trace export that scripts/trace_summary.py can digest.
  grep -q "^bsched-telemetry v1$" "$svc_dir/metrics.txt"
  "$dir/obs_report" --metrics "$svc_dir/metrics.txt" \
    | grep -q "svc.coordinator.results_accepted_total"
  "$dir/scenario_sweep" --threads 2 --replications 5 \
    --trace "$svc_dir/trace.json" > /dev/null
  python3 scripts/trace_summary.py "$svc_dir/trace.json" \
    | grep -q "engine.run_sweep"
  # The paper artefacts, byte for byte: Tables 3 and 5 and Figure 6
  # (stdout plus both CSV series, written into the bench's working
  # directory) must match the committed goldens in tests/golden/.
  local golden fig_dir bin
  golden="$PWD/tests/golden"
  bin="$(cd "$dir" && pwd)"
  "$bin/bench_table3" | cmp - "$golden/bench_table3.txt"
  "$bin/bench_table5" | cmp - "$golden/bench_table5.txt"
  fig_dir="$(tmpdir)"
  (cd "$fig_dir" && "$bin/bench_fig6") | cmp - "$golden/bench_fig6.txt"
  cmp "$fig_dir/fig6a_best_of_two.csv" "$golden/fig6a_best_of_two.csv"
  cmp "$fig_dir/fig6b_optimal.csv" "$golden/fig6b_optimal.csv"
  # The replicated demo sweep's CSV at 50 replications per cell, byte for
  # byte: quantiles are exact order statistics under one rank rule, and
  # the moments are pure functions of each cell's value counts.
  "$bin/scenario_sweep" --threads 2 --replications 50 \
    --csv "$fig_dir/scenario_sweep_50.csv" > /dev/null
  cmp "$fig_dir/scenario_sweep_50.csv" "$golden/scenario_sweep_50.csv"
  "$dir/bench_lookahead" > /dev/null
  # The PTA engine end to end: the lamp's min-cost schedule is pinned.
  "$dir/lamp_pta" | grep -q "cost 210 in 10 time units"
  # Perf gate: the microbenchmarks run in JSON mode and are judged
  # against the committed baseline (BENCH_micro.json). The tolerance is
  # loose — it exists to catch step-function regressions (an event
  # kernel degrading to per-tick stepping, sweep jobs losing their
  # shared bank build), not cycle-level noise. After a deliberate perf
  # change, refresh the baseline with scripts/bench_gate.py --update
  # and commit it with the change. (Sanitizer flavours never run this —
  # their timing says nothing.)
  if [ -x "$dir/bench_micro" ]; then
    "$dir/bench_micro" --benchmark_min_time=0.1 \
      --benchmark_format=json --benchmark_out="$dir/bench_micro.json"
    python3 scripts/bench_gate.py --baseline BENCH_micro.json \
      --current "$dir/bench_micro.json" --tolerance 3.0
    # The zero-overhead guarantee of the obs macros, enforced: with
    # BSCHED_OBS=OFF every instrumentation site compiles to nothing, so
    # the obs-off kernels must clear the same committed baseline the
    # obs-on build just did.
    local obs_off="$BUILD_PREFIX-release-obs-off"
    configure_and_build "$obs_off" Release -DBSCHED_OBS=OFF
    "$obs_off/bench_micro" --benchmark_min_time=0.1 \
      --benchmark_format=json --benchmark_out="$obs_off/bench_micro.json"
    python3 scripts/bench_gate.py --baseline BENCH_micro.json \
      --current "$obs_off/bench_micro.json" --tolerance 3.0
    ctest --test-dir "$obs_off" --output-on-failure -j "$JOBS"
  else
    echo "ci: bench_micro not built (google-benchmark missing); skipped"
  fi
}

case "${1:-all}" in
  debug)      run_debug ;;
  release)    run_release ;;
  asan-ubsan) run_asan_ubsan ;;
  tsan)       run_tsan ;;
  lint)       run_lint ;;
  tidy)       run_tidy ;;
  all)        run_lint; run_tidy; run_debug; run_release
              run_asan_ubsan; run_tsan ;;
  *) echo "usage: $0 [debug|release|asan-ubsan|tsan|lint|tidy|all]" >&2
     exit 2 ;;
esac
echo "ci: OK"
