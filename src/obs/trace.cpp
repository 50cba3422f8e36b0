#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <utility>

#include "obs/thread_slot.hpp"
#include "util/error.hpp"

namespace bsched::obs {

namespace detail {

/// One thread's bounded span ring plus its open-span stack: a slot of
/// obs/thread_slot.hpp, so buf writes have a single writer. The mutex
/// only arbitrates push vs drain.
struct trace_ring {
  std::atomic<bool> in_use{true};
  std::uint64_t tid = 0;       ///< 1-based thread slot (stable per ring).
  std::int64_t epoch_ns = 0;   ///< Copy of the tracer epoch.
  std::mutex mu;               ///< buf/next/count/dropped.
  std::vector<span_record> buf;
  std::size_t next = 0;
  std::size_t count = 0;
  std::uint64_t dropped = 0;
  std::vector<std::uint64_t> stack;  ///< Owner thread only.

  void push(span_record rec) {
    const std::scoped_lock lock(mu);
    buf[next] = std::move(rec);
    next = (next + 1) % buf.size();
    if (count < buf.size()) {
      ++count;
    } else {
      ++dropped;  // the slot we just overwrote held the oldest record
    }
  }
};

}  // namespace detail

namespace {

using detail::trace_ring;

/// Completed spans each thread's ring holds between drains.
constexpr std::size_t kRingCapacity = 4096;

/// This thread's ring of the tracer.
thread_local detail::parking<trace_ring> tls_ring;

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void json_escape(const std::string& s, std::ostream& out) {
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(c));
          out << buf;
        } else {
          out << c;
        }
    }
  }
}

}  // namespace

struct tracer::state {
  const std::int64_t epoch_ns = steady_now_ns();
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> next_span{1};
  std::mutex mu;  ///< Ring list.
  std::vector<std::unique_ptr<trace_ring>> rings;

  trace_ring& local() {
    if (tls_ring.slot != nullptr) return *tls_ring.slot;
    const std::scoped_lock lock(mu);
    return detail::adopt_or_make(tls_ring, rings, [this] {
      auto ring = std::make_unique<trace_ring>();
      ring->tid = rings.size() + 1;
      ring->epoch_ns = epoch_ns;
      ring->buf.resize(kRingCapacity);
      return ring;
    });
  }
};

tracer::tracer() : st_(std::make_unique<state>()) {}

void tracer::enable(bool on) noexcept {
  st_->enabled.store(on, std::memory_order_release);
}

std::vector<span_record> tracer::drain() {
  const std::scoped_lock lock(st_->mu);
  std::vector<span_record> out;
  for (const auto& r : st_->rings) {
    const std::scoped_lock ring_lock(r->mu);
    const std::size_t cap = r->buf.size();
    const std::size_t oldest = (r->next + cap - r->count) % cap;
    for (std::size_t i = 0; i < r->count; ++i) {
      out.push_back(r->buf[(oldest + i) % cap]);
    }
    r->count = 0;
    r->next = 0;
  }
  return out;
}

std::uint64_t tracer::dropped() const {
  const std::scoped_lock lock(st_->mu);
  std::uint64_t total = 0;
  for (const auto& r : st_->rings) {
    const std::scoped_lock ring_lock(r->mu);
    total += r->dropped;
  }
  return total;
}

tracer& tracer::global() {
  static tracer* const instance = new tracer;  // never destroyed
  return *instance;
}

void write_chrome_trace(const std::vector<span_record>& spans,
                        std::ostream& out) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[64];
  for (const span_record& s : spans) {
    if (!first) out << ',';
    first = false;
    out << "\n{\"name\":\"";
    json_escape(s.name, out);
    out << "\",\"cat\":\"bsched\",\"ph\":\"X\",\"ts\":";
    std::snprintf(buf, sizeof buf, "%.3f",
                  static_cast<double>(s.start_ns) / 1000.0);
    out << buf << ",\"dur\":";
    std::snprintf(buf, sizeof buf, "%.3f",
                  static_cast<double>(s.dur_ns) / 1000.0);
    out << buf << ",\"pid\":1,\"tid\":" << s.tid << ",\"args\":{\"id\":"
        << s.id << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  require(out.good(), "obs: trace sink write failed");
}

namespace detail {

span::span(const char* name) : name_(name) {
  tracer::state& t = *tracer::global().st_;
  if (!t.enabled.load(std::memory_order_relaxed)) return;
  trace_ring& ring = t.local();
  ring_ = &ring;
  id_ = t.next_span.fetch_add(1, std::memory_order_relaxed);
  parent_ = ring.stack.empty() ? 0 : ring.stack.back();
  ring.stack.push_back(id_);
  start_ns_ = steady_now_ns() - ring.epoch_ns;
}

span::span(const char* name, std::uint64_t parent) : name_(name) {
  tracer::state& t = *tracer::global().st_;
  if (!t.enabled.load(std::memory_order_relaxed)) return;
  trace_ring& ring = t.local();
  ring_ = &ring;
  id_ = t.next_span.fetch_add(1, std::memory_order_relaxed);
  parent_ = parent;
  ring.stack.push_back(id_);
  start_ns_ = steady_now_ns() - ring.epoch_ns;
}

span::~span() {
  if (ring_ == nullptr) return;
  // Scoped lifetimes keep the stack LIFO; erase from the back anyway so
  // an exotic interleaving degrades parents, not memory safety.
  const auto it = std::find(ring_->stack.rbegin(), ring_->stack.rend(), id_);
  if (it != ring_->stack.rend()) {
    ring_->stack.erase(std::next(it).base());
  }
  span_record rec;
  rec.name = name_;
  rec.id = id_;
  rec.parent = parent_;
  rec.tid = ring_->tid;
  rec.start_ns = start_ns_;
  rec.dur_ns = (steady_now_ns() - ring_->epoch_ns) - start_ns_;
  ring_->push(std::move(rec));
}

}  // namespace detail

}  // namespace bsched::obs
