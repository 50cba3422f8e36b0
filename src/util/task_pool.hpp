// The one place library code starts threads.
//
// task_pool::run starts `threads` fresh threads, runs the same body on
// each, and joins them all before it returns; the calling thread only
// waits. api::engine::run_sweep is the caller: every body claims sweep
// jobs from a shared counter until none is left. Running each job on a
// fresh thread, never on the caller, keeps a sweep's peak memory
// independent of what the caller's allocator arena still holds.
//
// The pool guarantees nothing about which thread runs which job, so
// callers must make their results independent of the schedule (the sweep
// delivers in grid order whatever the thread count).
#pragma once

#include <cstddef>
#include <functional>

namespace bsched::util {

struct task_pool {
  /// Runs `body` once on each of `threads` newly started threads and
  /// joins them. `body` must not throw — it owns its error channel.
  static void run(std::size_t threads, const std::function<void()>& body);
};

}  // namespace bsched::util
