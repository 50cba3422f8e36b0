#include "api/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "kibam/bank.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/task_pool.hpp"

namespace bsched::api {

namespace {

/// Serials of bank caches, unique per process: a thread's last-used slot
/// (below) names its cache by serial, never by address, so a cache
/// allocated where a destroyed one lived never matches a stale slot.
std::atomic<std::uint64_t> next_cache_serial{1};

/// The bank this thread looked up last, with the shape and the cache it
/// came from. A hit returns the bank without a lock or a write to a
/// shared reference count; the slot's own reference keeps the bank alive
/// until this thread's next miss or its exit.
struct last_bank {
  std::uint64_t cache = 0;  ///< 0: empty.
  std::vector<kibam::battery_parameters> batteries;
  load::step_sizes steps;
  std::shared_ptr<const kibam::bank> bank;
};
thread_local last_bank last_used;

}  // namespace

/// Immutable banks interned by value on (batteries, steps). A fleet worker
/// runs thousands of few-item sweeps of one shape, so the discretization
/// build is paid once per engine rather than once per call. Holds at most
/// `capacity` shapes, evicting the least recently used; a thread's
/// last-used slot keeps its bank alive either way.
class engine::bank_cache {
 public:
  /// The bank of (batteries, steps), built on first use. Throws the
  /// construction error when the shape is invalid; such a shape is neither
  /// cached nor put in the thread's slot, so each use reports the error
  /// again. The bank stays valid until this thread's next lookup misses.
  const kibam::bank& get(
      const std::vector<kibam::battery_parameters>& batteries,
      const load::step_sizes& steps) {
    last_bank& slot = last_used;
    if (slot.cache == serial_ && slot.steps == steps &&
        slot.batteries == batteries) {
      return *slot.bank;
    }
    std::shared_ptr<const kibam::bank> bank = find_or_build(batteries, steps);
    slot.cache = 0;  // stays empty should the copy below throw
    slot.batteries.assign(batteries.begin(), batteries.end());
    slot.steps = steps;
    slot.bank = std::move(bank);
    slot.cache = serial_;
    return *slot.bank;
  }

 private:
  static constexpr std::size_t capacity = 32;

  struct entry {
    std::vector<kibam::battery_parameters> batteries;
    load::step_sizes steps;
    std::shared_ptr<const kibam::bank> bank;
  };

  std::shared_ptr<const kibam::bank> find_or_build(
      const std::vector<kibam::battery_parameters>& batteries,
      const load::step_sizes& steps) {
    const std::scoped_lock lock(mutex_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->steps == steps && it->batteries == batteries) {
        std::rotate(entries_.begin(), it, it + 1);  // most recent first
        return entries_.front().bank;
      }
    }
    // Built under the lock: concurrent first uses of a shape build once.
    std::shared_ptr<const kibam::bank> bank =
        std::make_shared<kibam::bank>(batteries, steps);
    BSCHED_COUNTER_ADD("engine.bank_builds_total", 1);
    if (entries_.size() == capacity) entries_.pop_back();
    entries_.insert(entries_.begin(), entry{batteries, steps, bank});
    return bank;
  }

  const std::uint64_t serial_ =
      next_cache_serial.fetch_add(1, std::memory_order_relaxed);
  std::mutex mutex_;
  std::vector<entry> entries_;  ///< Most recently used first.
};

engine::engine(engine_options opts)
    : opts_(std::move(opts)), banks_(std::make_shared<bank_cache>()) {}

run_result engine::run(const scenario& scn) const {
  require(!scn.batteries.empty(), "engine: scenario needs >= 1 battery");
  // The bank comes first, so an invalid (batteries, steps) shape reports
  // its construction error before any load or policy error.
  const kibam::bank* const bank =
      scn.model == fidelity::discrete ? &banks_->get(scn.batteries, scn.steps)
                                      : nullptr;
  const load::trace trace = scn.load.materialize();
  const std::unique_ptr<sched::policy> pol = opts_.policies.make(scn.policy);
  run_result out;
  // The policy is built unbound: the simulator core binds it to the run's
  // model (bank + forecast) before stepping, so a model-aware policy —
  // exact search, online lookahead, custom registrations — plans against
  // exactly the state representation the run advances.
  out.sim = bank != nullptr
                ? sched::simulate_discrete(*bank, trace, *pol, scn.sim)
                : sched::simulate_continuous(scn.batteries, trace, *pol,
                                             scn.sim);
  out.policy_name = pol->name();
  out.search = pol->stats();
  return out;
}

sweep_stats engine::run_sweep(const sweep& sw, result_sink& sink,
                              std::size_t n_threads, item_range items) const {
  sweep_stats stats;
  const std::size_t total = sw.cells.size() * sw.replications;
  const std::size_t first = items.first;
  const std::size_t last =
      items.last == item_range::to_end ? total : items.last;
  if (first > last || last > total) {
    throw error("run_sweep: item range [" + std::to_string(first) + ", " +
                std::to_string(last) + ") exceeds the sweep's " +
                std::to_string(total) + " items");
  }
  const std::size_t count = last - first;
  if (count == 0) return stats;
  stats.runs = count;

  BSCHED_TRACE_SPAN(sweep_span, "engine.run_sweep");
  // Pool threads open their spans against this id explicitly — the
  // per-thread parent stack does not cross threads. (Unread when
  // BSCHED_OBS=OFF, where the span macros drop their arguments.)
  [[maybe_unused]] const std::uint64_t sweep_parent = sweep_span.id();

  // Job planning, in first-seen grid order. An item of a re-seeded
  // stochastic cell derives its seeds from its own global (cell,
  // replication), so no other item can repeat it: it is its own job, never
  // keyed, and its scenario is built only when it is evaluated. Every item
  // of a deterministic cell runs the cell verbatim, so the cell is keyed
  // once; its other items, and the items of identical cells, share its
  // job and are delivered as cache hits.
  struct job {
    std::size_t first_item;  ///< The grid item that evaluates the job.
    std::size_t last_item;   ///< After it, the result is dropped.
    bool reseeded;           ///< Evaluates replicate(first_item).
  };
  std::vector<std::size_t> job_of(count);  // by item - first
  std::vector<job> jobs;
  {
    std::unordered_map<std::string, std::size_t> index;
    for (std::size_t item = first; item < last;) {
      const std::size_t cell = item / sw.replications;
      const std::size_t cell_end =
          std::min(last, (cell + 1) * sw.replications);
      if (sw.reseed && stochastic(sw.cells[cell])) {
        for (; item < cell_end; ++item) {
          job_of[item - first] = jobs.size();
          jobs.push_back(job{item, item, true});
        }
        continue;
      }
      const auto [it, inserted] =
          index.try_emplace(cell_key(sw.cells[cell]), jobs.size());
      if (inserted) jobs.push_back(job{item, item, false});
      for (; item < cell_end; ++item) job_of[item - first] = it->second;
      jobs[it->second].last_item = cell_end - 1;
    }
  }
  stats.evaluated = jobs.size();
  stats.cache_hits = count - jobs.size();

  if (n_threads == 0) n_threads = std::thread::hardware_concurrency();
  n_threads = std::clamp<std::size_t>(n_threads, 1, jobs.size());

  std::vector<run_result> results(jobs.size());
  std::vector<std::atomic<bool>> done(jobs.size());

  // Every discrete job of one (batteries, steps) shape reads the same
  // cached bank (run() takes it from the engine's bank cache).
  const auto evaluate = [&](std::size_t j) noexcept {
    BSCHED_TRACE_SPAN(job_span, "engine.job", sweep_parent);
    const std::size_t item = jobs[j].first_item;
    const std::size_t cell = item / sw.replications;
    try {
      results[j] = jobs[j].reseeded
                       ? run(replicate(sw, cell, item % sw.replications))
                       : run(sw.cells[cell]);
    } catch (const std::exception& e) {
      results[j] = run_result{};
      results[j].error = e.what();
    } catch (...) {
      results[j] = run_result{};
      results[j].error = "unknown error";
    }
    done[j].store(true, std::memory_order_release);
  };

  // Ordered streaming delivery, as a combining flush: a finishing worker
  // never waits for another. Each completion is announced on `pending`;
  // the worker whose announcement finds no flush under way becomes the
  // flusher and delivers the contiguous run of grid items whose jobs have
  // completed, while later finishers go straight back to their next job.
  // Before it steps down the flusher takes back the announcements it
  // served; if more arrived meanwhile, it flushes again. The sink
  // therefore sees results strictly in grid order from one thread at a
  // time, and the last evaluation to finish drains the tail — no
  // post-join sweep-up needed. With one worker every announcement finds
  // the count at zero, so that worker flushes after each job. A throwing
  // sink (contract violation) stops further deliveries; the first
  // exception is rethrown on the calling thread once the pool has
  // drained.
  std::atomic<std::size_t> pending{0};
  std::size_t delivered = 0;                // owned by the flusher
  std::exception_ptr sink_error = nullptr;  // owned by the flusher
  const auto drain = [&]() {
    while (delivered < count &&
           done[job_of[delivered]].load(std::memory_order_acquire)) {
      const std::size_t item = first + delivered;
      const std::size_t j = job_of[delivered];
      const bool cache_hit = item != jobs[j].first_item;
      BSCHED_COUNTER_ADD("engine.items_total", 1);
      if (cache_hit) BSCHED_COUNTER_ADD("engine.cache_hits_total", 1);
      if (!results[j].ok()) {
        ++stats.failures;
        BSCHED_COUNTER_ADD("engine.failures_total", 1);
      }
      if (sink_error == nullptr) {
        try {
          sink.consume(sweep_result{item / sw.replications,
                                    item % sw.replications, cache_hit,
                                    results[j]});
        } catch (...) {
          sink_error = std::current_exception();
        }
      }
      // Nothing after a job's last grid item reads its result: drop it
      // so retained results track the delivery frontier. (Workers take
      // no backpressure from that frontier, so a slow early job can
      // still buffer later completions until it delivers.)
      if (item == jobs[j].last_item) results[j] = run_result{};
      ++delivered;
    }
  };
  const auto flush = [&]() {
    // acq_rel on both ends: the count's modification order hands the
    // flusher role, and everything the previous flusher wrote, from one
    // flusher to the next. The count itself is the lock: a try_lock may
    // fail spuriously, and an announcement it turned away would be lost.
    if (pending.fetch_add(1, std::memory_order_acq_rel) != 0) return;
    for (std::size_t served = 1;;) {
      drain();
      const std::size_t announced =
          pending.fetch_sub(served, std::memory_order_acq_rel);
      if (announced == served) return;
      served = announced - served;
    }
  };

  // Jobs are claimed in grid order, so completions (and the results
  // buffered ahead of the delivery frontier) stay close to that order.
  std::atomic<std::size_t> next{0};
  const auto worker = [&]() noexcept {
    for (std::size_t j = next.fetch_add(1); j < jobs.size();
         j = next.fetch_add(1)) {
      evaluate(j);
      flush();
    }
  };

  if (n_threads == 1) {
    worker();
  } else {
    // The calling thread takes no job. Every job thus runs on a pool
    // thread whose allocator arena starts cold, and a sweep's peak memory
    // does not depend on whether a large job (an exact search's memo)
    // lands on the caller, whose arena may still hold memory that earlier
    // work freed.
    util::task_pool::run(n_threads, worker);
  }
  BSCHED_ASSERT(delivered == count);
  if (sink_error != nullptr) std::rethrow_exception(sink_error);
  return stats;
}

sweep_stats engine::run_sweep(const sweep& sw,
                              std::function<void(const sweep_result&)> fn,
                              std::size_t n_threads) const {
  callback_sink sink{std::move(fn)};
  return run_sweep(sw, sink, n_threads);
}

std::vector<run_result> engine::run_batch(std::span<const scenario> scenarios,
                                          std::size_t n_threads) const {
  // One replication of every cell, no re-seeding: the scenarios run with
  // exactly the seeds they declare, and results land positionally.
  // Duplicate scenarios are served from the sweep's cell cache, which is
  // observationally identical to evaluating them again (scenarios are
  // pure functions of their value).
  sweep sw;
  sw.cells.assign(scenarios.begin(), scenarios.end());
  sw.replications = 1;
  sw.reseed = false;
  std::vector<run_result> out(scenarios.size());
  run_sweep(
      sw, [&](const sweep_result& r) { out[r.cell] = r.result; }, n_threads);
  return out;
}

}  // namespace bsched::api
