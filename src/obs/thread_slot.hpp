// Per-thread slots that outlive their threads: the binding protocol the
// metrics shards (obs/metrics.cpp) and the trace rings (obs/trace.cpp)
// share.
//
// A slot is any type with a `std::atomic<bool> in_use` that starts true.
// It has one owner thread at a time, so the owner writes it without a
// lock. A thread binds on first touch, adopting the first parked slot or
// appending a new one; its thread_local parking parks the slot again when
// the thread exits. The in_use CAS (acquire) and the parking store
// (release) are the handoff between successive owners, and a parked slot
// keeps its contents, so counts and rings persist across thread churn.
// Slots belong to the process's one registry and one tracer, which are
// never destroyed, so a thread exiting at any time parks into live
// memory.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

namespace bsched::obs::detail {

/// A thread's binding to its slot; parks the slot when destroyed, so
/// declare it thread_local.
template <class Slot>
struct parking {
  Slot* slot = nullptr;

  parking() = default;
  parking(const parking&) = delete;
  parking& operator=(const parking&) = delete;
  ~parking() {
    if (slot != nullptr) slot->in_use.store(false, std::memory_order_release);
  }
};

/// Binds `p` to the first parked slot of `slots`, or else to make()'s
/// slot, appended. The caller holds the lock that guards `slots`.
template <class Slot, class Make>
Slot& adopt_or_make(parking<Slot>& p,
                    std::vector<std::unique_ptr<Slot>>& slots, Make make) {
  for (const auto& s : slots) {
    bool expected = false;
    if (s->in_use.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel)) {
      p.slot = s.get();
      return *p.slot;
    }
  }
  slots.push_back(make());
  p.slot = slots.back().get();
  return *p.slot;
}

}  // namespace bsched::obs::detail
