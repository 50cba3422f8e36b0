// Benchmark-side probes for the traced run: a forwarding policy registry
// that times bind_model/choose, a forwarding sink that times consume, a
// span collector draining obs::tracer::global() while a pass runs, and
// the ledger that turns the drained spans into per-layer self time.
//
// Nothing here touches src/: the probes wrap the public seams (the
// policy registry, result_sink) and read the spans and counters the
// library already emits.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/registry.hpp"

namespace perfbench {

/// Log-spaced histogram of nanosecond durations (1/32-octave bins, about
/// 2% resolution) for quantiles over millions of samples.
class log_histogram {
 public:
  void add(std::int64_t ns);
  void merge(const log_histogram& other);
  /// Quantile `q` in [0, 1] in nanoseconds (bin midpoint); 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  static constexpr int per_octave = 32;
  static constexpr int octaves = 48;
  std::vector<std::uint64_t> bins_ =
      std::vector<std::uint64_t>(per_octave * octaves, 0);
  std::uint64_t n_ = 0;
};

/// What one simulated run's policy did, recorded when the policy dies.
struct policy_run {
  /// Id of the run's "sched.bind_model" span (0 when tracing was off).
  std::uint64_t bind_span = 0;
  std::int64_t bind_ns = 0;
  std::int64_t choose_ns = 0;
  std::uint64_t decisions = 0;
  std::uint64_t rollouts = 0;
  bool exact = false;  ///< "opt" / "worst": plans by exact search.
};

/// Collects policy timings from every run of a traced pass.
class policy_probe {
 public:
  /// `base` with every entry replaced by a forwarder that times the
  /// inner policy's bind_model (as a "sched.bind_model" span) and each
  /// choose call. Names and spec strings are unchanged, so cell keys and
  /// results are identical to `base`'s.
  [[nodiscard]] bsched::sched::registry wrap(
      const bsched::sched::registry& base);

  void record(const policy_run& run, const std::vector<std::int64_t>& choose);

  /// Valid once every run has finished.
  [[nodiscard]] const std::vector<policy_run>& runs() const { return runs_; }
  [[nodiscard]] const log_histogram& choose_ns() const { return choose_; }

 private:
  std::mutex mu_;
  std::vector<policy_run> runs_;  // guarded by mu_
  log_histogram choose_;          // guarded by mu_
};

/// Forwards to `inner`, wrapping each consume in a "bench.consume" span.
class timed_sink final : public bsched::api::result_sink {
 public:
  explicit timed_sink(bsched::api::result_sink& inner) : inner_(inner) {}
  void consume(const bsched::api::sweep_result& r) override;

 private:
  bsched::api::result_sink& inner_;
};

/// Enables the global tracer and drains its per-thread rings on a
/// background thread (the rings hold 4096 spans each, a few milliseconds
/// of a busy pass), until finish().
class span_collector {
 public:
  span_collector();
  ~span_collector();
  span_collector(const span_collector&) = delete;
  span_collector& operator=(const span_collector&) = delete;

  /// Disables the tracer, stops the drainer and returns every span.
  std::vector<bsched::obs::span_record> finish();
  /// Spans lost to ring overflow while collecting (should be 0).
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  void drain_into();

  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::vector<bsched::obs::span_record> spans_;  // guarded by mu_
  std::uint64_t dropped_at_start_ = 0;
  std::uint64_t dropped_ = 0;
  std::thread drainer_;  // declared last: uses the members above
};

/// Per-layer self time of one traced pass. A span's self time is its
/// duration minus the durations of its children *on the same thread*;
/// children on other threads (the sweep pool, fleet workers) run
/// concurrently and are not subtracted. engine.job self time is further
/// split into the policy's choose time ("sched.choose") and the rest
/// ("api.job": simulator core + dKiBaM kernel).
struct ledger {
  std::map<std::string, double> self_s;  ///< Layer -> seconds.
  double attributed_s = 0;  ///< Sum of self_s.
  double capacity_s = 0;    ///< wall_s x threads that recorded spans.
  std::size_t threads = 0;
  std::vector<double> job_self_ns;  ///< Per engine.job, choose excluded.
  std::vector<double> consume_ns;   ///< Per bench.consume span.
  double bind_s = 0;                ///< Summed bind_model time.
  double exact_bind_s = 0;          ///< ... of exact-search policies.
  double longest_exact_bind_s = 0;
};

[[nodiscard]] ledger build_ledger(
    const std::vector<bsched::obs::span_record>& spans,
    const std::vector<policy_run>& runs, double wall_s);

/// Counter and histogram values of a registry scrape, by name (histograms
/// as "<name>.count" and "<name>.sum").
[[nodiscard]] std::map<std::string, double> flatten(
    const bsched::obs::snapshot& snap);

/// Exact median of `v` (reorders it); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

}  // namespace perfbench
