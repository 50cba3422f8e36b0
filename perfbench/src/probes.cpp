#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <unordered_map>
#include <utility>

#include "obs/obs.hpp"
#include "util/spec.hpp"

namespace perfbench {

namespace sched = bsched::sched;
namespace obs = bsched::obs;

namespace {

using steady = std::chrono::steady_clock;

std::int64_t ns_since(steady::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(steady::now() -
                                                              t0)
      .count();
}

/// Forwards every call to the wrapped policy, timing bind_model and
/// choose. Lives exactly as long as one simulated run (the engine builds
/// a policy per run), so it reports that run's totals when destroyed.
class timed_policy final : public sched::policy {
 public:
  timed_policy(std::unique_ptr<sched::policy> inner, policy_probe& probe,
               bool exact)
      : inner_(std::move(inner)), probe_(probe) {
    run_.exact = exact;
  }

  ~timed_policy() override {
    try {
      run_.rollouts = inner_->stats().rollouts;
      probe_.record(run_, choose_);
    } catch (...) {
      // A lost sample only thins the traced statistics.
    }
  }

  timed_policy(const timed_policy&) = delete;
  timed_policy& operator=(const timed_policy&) = delete;

  std::size_t choose(const sched::decision_context& ctx) override {
    const steady::time_point t0 = steady::now();
    const std::size_t pick = inner_->choose(ctx);
    const std::int64_t ns = ns_since(t0);
    run_.choose_ns += ns;
    ++run_.decisions;
    choose_.push_back(ns);
    return pick;
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void reset() override { inner_->reset(); }

  void bind_model(const sched::model_info& model) override {
    BSCHED_TRACE_SPAN(span, "sched.bind_model");
    run_.bind_span = span.id();
    const steady::time_point t0 = steady::now();
    inner_->bind_model(model);
    run_.bind_ns += ns_since(t0);
  }

  [[nodiscard]] sched::search_stats stats() const override {
    return inner_->stats();
  }

 private:
  std::unique_ptr<sched::policy> inner_;
  policy_probe& probe_;
  policy_run run_;
  std::vector<std::int64_t> choose_;
};

std::string layer_of(const std::string& span) {
  static const std::map<std::string, std::string> layers{
      {"bench.pass", "bench"},
      {"bench.run_sweep", "bench"},
      {"bench.coordinator.run", "svc.coordinator"},
      {"bench.run_worker", "svc.worker"},
      {"bench.consume", "api.consume"},
      {"engine.run_sweep", "api.sweep"},
      {"engine.batch", "api.sweep"},
      {"engine.job", "api.job"},
      {"sched.bind_model", "sched.bind"},
      {"opt.search.solve", "opt.search"},
  };
  const auto it = layers.find(span);
  return it != layers.end() ? it->second : span;
}

}  // namespace

void log_histogram::add(std::int64_t ns) {
  int bin = 0;
  if (ns > 1) {
    bin = static_cast<int>(std::log2(static_cast<double>(ns)) * per_octave);
    bin = std::clamp(bin, 0, per_octave * octaves - 1);
  }
  ++bins_[static_cast<std::size_t>(bin)];
  ++n_;
}

void log_histogram::merge(const log_histogram& other) {
  for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
  n_ += other.n_;
}

double log_histogram::quantile(double q) const {
  if (n_ == 0) return 0;
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    seen += bins_[i];
    if (seen >= target) {
      return std::exp2((static_cast<double>(i) + 0.5) / per_octave);
    }
  }
  return std::exp2(static_cast<double>(bins_.size()) / per_octave);
}

sched::registry policy_probe::wrap(const sched::registry& base) {
  const auto inner = std::make_shared<const sched::registry>(base);
  sched::registry out;
  for (const std::string& name : inner->names()) {
    const bool exact = name == "opt" || name == "worst";
    out.add(name, [this, inner, exact](const bsched::spec& s)
                      -> std::unique_ptr<sched::policy> {
      return std::make_unique<timed_policy>(inner->make(s), *this, exact);
    });
  }
  return out;
}

void policy_probe::record(const policy_run& run,
                          const std::vector<std::int64_t>& choose) {
  log_histogram local;
  for (const std::int64_t ns : choose) local.add(ns);
  const std::scoped_lock lock(mu_);
  runs_.push_back(run);
  choose_.merge(local);
}

void timed_sink::consume(const bsched::api::sweep_result& r) {
  BSCHED_TRACE_SPAN(span, "bench.consume");
  inner_.consume(r);
}

span_collector::span_collector() {
  obs::tracer& tracer = obs::tracer::global();
  (void)tracer.drain();  // records of an earlier pass are not ours
  dropped_at_start_ = tracer.dropped();
  tracer.enable(true);
  drainer_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) {
      drain_into();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
}

span_collector::~span_collector() {
  if (drainer_.joinable()) {
    obs::tracer::global().enable(false);
    stop_.store(true, std::memory_order_release);
    drainer_.join();
  }
}

void span_collector::drain_into() {
  std::vector<obs::span_record> batch = obs::tracer::global().drain();
  const std::scoped_lock lock(mu_);
  spans_.insert(spans_.end(), std::make_move_iterator(batch.begin()),
                std::make_move_iterator(batch.end()));
}

std::vector<obs::span_record> span_collector::finish() {
  obs::tracer& tracer = obs::tracer::global();
  tracer.enable(false);
  stop_.store(true, std::memory_order_release);
  drainer_.join();
  drain_into();
  dropped_ = tracer.dropped() - dropped_at_start_;
  const std::scoped_lock lock(mu_);
  return std::move(spans_);
}

ledger build_ledger(const std::vector<obs::span_record>& spans,
                    const std::vector<policy_run>& runs, double wall_s) {
  ledger out;
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  // Same-thread children only: a child on another thread overlaps its
  // parent instead of nesting inside the parent's thread time.
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const obs::span_record& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it != index.end() && spans[it->second].tid == s.tid) {
      child_ns[it->second] += s.dur_ns;
    }
  }

  // A run's choose time belongs to the engine.job span that parents the
  // run's sched.bind_model span.
  std::unordered_map<std::uint64_t, std::int64_t> choose_of_bind;
  for (const policy_run& r : runs) {
    if (r.bind_span != 0) choose_of_bind[r.bind_span] += r.choose_ns;
    out.bind_s += 1e-9 * static_cast<double>(r.bind_ns);
    if (r.exact) {
      const double s = 1e-9 * static_cast<double>(r.bind_ns);
      out.exact_bind_s += s;
      out.longest_exact_bind_s = std::max(out.longest_exact_bind_s, s);
    }
  }
  std::unordered_map<std::uint64_t, std::int64_t> choose_of_job;
  for (const obs::span_record& s : spans) {
    if (s.name != "sched.bind_model") continue;
    const auto it = choose_of_bind.find(s.id);
    if (it != choose_of_bind.end()) choose_of_job[s.parent] += it->second;
  }

  std::set<std::uint64_t> tids;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::span_record& s = spans[i];
    tids.insert(s.tid);
    std::int64_t self = s.dur_ns - child_ns[i];
    if (s.name == "engine.job") {
      const auto it = choose_of_job.find(s.id);
      const std::int64_t choose = it != choose_of_job.end() ? it->second : 0;
      self -= choose;
      out.self_s["sched.choose"] += 1e-9 * static_cast<double>(choose);
      out.job_self_ns.push_back(static_cast<double>(self));
    } else if (s.name == "bench.consume") {
      out.consume_ns.push_back(static_cast<double>(s.dur_ns));
    }
    out.self_s[layer_of(s.name)] += 1e-9 * static_cast<double>(self);
  }
  for (const auto& [layer, s] : out.self_s) out.attributed_s += s;
  out.threads = tids.size();
  out.capacity_s = wall_s * static_cast<double>(tids.size());
  return out;
}

std::map<std::string, double> flatten(const obs::snapshot& snap) {
  std::map<std::string, double> out;
  for (const obs::counter_sample& c : snap.counters) {
    out[c.name] = static_cast<double>(c.value);
  }
  for (const obs::histogram_sample& h : snap.histograms) {
    out[h.name + ".count"] = static_cast<double>(h.count());
    out[h.name + ".sum"] = h.sum;
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  const double hi = *mid;
  const double lo = *std::max_element(v.begin(), mid);
  return 0.5 * (lo + hi);
}

}  // namespace perfbench
