#include "obs/metrics.hpp"

#include <atomic>
#include <bit>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "obs/thread_slot.hpp"
#include "util/error.hpp"

namespace bsched::obs {

namespace {

// Stable-address growth for everything the hot path reads while another
// thread may be appending: storage grows in geometric blocks that are
// published once (release) and never moved, so a reader maps an index to
// (block, offset) with bit math and indexes straight in — no lock, no
// reallocation race. Block b holds 16 << b slots starting at slot
// 16 * (2^b - 1).
constexpr std::size_t kBlockCount = 26;  // covers ~10^9 slots

constexpr std::size_t block_of(std::size_t slot) noexcept {
  return static_cast<std::size_t>(std::bit_width(slot / 16 + 1)) - 1;
}

constexpr std::size_t block_start(std::size_t b) noexcept {
  return 16 * ((std::size_t{1} << b) - 1);
}

constexpr std::size_t block_size(std::size_t b) noexcept {
  return std::size_t{16} << b;
}

template <typename T>
struct block_array {
  std::atomic<T*> blocks[kBlockCount] = {};

  ~block_array() {
    for (auto& b : blocks) delete[] b.load(std::memory_order_relaxed);
  }

  /// Writer side (serialized by the caller's mutex): the slot, its block
  /// allocated on first touch.
  T& slot(std::size_t index) {
    const std::size_t b = block_of(index);
    T* block = blocks[b].load(std::memory_order_relaxed);
    if (block == nullptr) {
      block = new T[block_size(b)]();
      blocks[b].store(block, std::memory_order_release);
    }
    return block[index - block_start(b)];
  }

  /// Reader side: the caller guarantees `index` was published (it read
  /// an element count with acquire), so the block pointer is visible.
  [[nodiscard]] const T& at(std::size_t index) const {
    const std::size_t b = block_of(index);
    return blocks[b].load(std::memory_order_acquire)[index - block_start(b)];
  }

  [[nodiscard]] T& at(std::size_t index) {
    const std::size_t b = block_of(index);
    return blocks[b].load(std::memory_order_acquire)[index - block_start(b)];
  }
};

/// One thread's private cell block: a slot of obs/thread_slot.hpp, so it
/// has exactly one writer at a time, and a parked shard keeps its values
/// for its next owner — counts are never lost and folds stay exact.
struct shard {
  std::atomic<bool> in_use{true};
  block_array<std::atomic<std::uint64_t>> cells;

  /// Owner-thread access (the single writer); allocates the block on
  /// first touch, publishing it (release) for concurrent scrapes.
  std::atomic<std::uint64_t>& cell(std::size_t index) {
    return cells.slot(index);
  }

  /// Scrape-side read: 0 when the cell's block was never touched.
  [[nodiscard]] std::uint64_t read(std::size_t index) const {
    const std::size_t b = block_of(index);
    const auto* block = cells.blocks[b].load(std::memory_order_acquire);
    if (block == nullptr) return 0;
    return block[index - block_start(b)].load(std::memory_order_relaxed);
  }
};

enum class metric_kind { counter, gauge, histogram };

struct metric_meta {
  std::string name;
  metric_kind kind = metric_kind::counter;
  std::size_t cell = 0;  ///< First shard cell / gauge slot.
  std::vector<double> bounds;  ///< Histograms only.
};

/// This thread's shard of the registry.
thread_local detail::parking<shard> tls_shard;

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == ':' || c == '-';
    if (!ok) return false;
  }
  return true;
}

double bits_to_double(std::uint64_t bits) {
  return std::bit_cast<double>(bits);
}

std::uint64_t double_to_bits(double v) {
  return std::bit_cast<std::uint64_t>(v);
}

}  // namespace

std::uint64_t histogram_sample::count() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets) total += b;
  return total;
}

void snapshot::merge(const snapshot& other) {
  for (const counter_sample& c : other.counters) {
    bool found = false;
    for (counter_sample& mine : counters) {
      if (mine.name == c.name) {
        mine.value += c.value;
        found = true;
        break;
      }
    }
    if (!found) counters.push_back(c);
  }
  for (const gauge_sample& g : other.gauges) {
    bool found = false;
    for (gauge_sample& mine : gauges) {
      if (mine.name == g.name) {
        mine.value = g.value;
        found = true;
        break;
      }
    }
    if (!found) gauges.push_back(g);
  }
  for (const histogram_sample& h : other.histograms) {
    bool found = false;
    for (histogram_sample& mine : histograms) {
      if (mine.name == h.name) {
        require(mine.bounds == h.bounds,
                "obs: merging histograms '" + h.name +
                    "' with different bucket bounds");
        for (std::size_t i = 0; i < mine.buckets.size(); ++i) {
          mine.buckets[i] += h.buckets[i];
        }
        mine.sum += h.sum;
        found = true;
        break;
      }
    }
    if (!found) histograms.push_back(h);
  }
}

snapshot snapshot::prefixed(const std::string& prefix) const {
  snapshot out = *this;
  for (counter_sample& c : out.counters) c.name = prefix + c.name;
  for (gauge_sample& g : out.gauges) g.name = prefix + g.name;
  for (histogram_sample& h : out.histograms) h.name = prefix + h.name;
  return out;
}

struct registry::state {
  mutable std::mutex mu;  ///< Registration, shard list, scrape.
  block_array<metric_meta> metas;  ///< Slots < meta_count are immutable.
  std::atomic<std::size_t> meta_count{0};
  std::unordered_map<std::string, std::size_t> by_name;  ///< Under mu.
  std::vector<std::unique_ptr<shard>> shards;            ///< Under mu.
  block_array<std::atomic<std::uint64_t>> gauge_cells;   ///< double bits.
  std::size_t gauge_count = 0;  ///< Under mu.
  std::size_t next_cell = 0;    ///< Under mu.

  std::size_t register_metric(std::string_view name, metric_kind kind,
                              std::vector<double> bounds) {
    require(valid_metric_name(name),
            "obs: metric name '" + std::string{name} +
                "' must be non-empty [A-Za-z0-9_.:-]");
    const std::scoped_lock lock(mu);
    const auto it = by_name.find(std::string{name});
    if (it != by_name.end()) {
      const metric_meta& meta = metas.at(it->second);
      require(meta.kind == kind, "obs: metric '" + std::string{name} +
                                     "' already registered as another kind");
      require(meta.bounds == bounds,
              "obs: histogram '" + std::string{name} +
                  "' already registered with different bounds");
      return it->second;
    }
    const std::size_t id_new = meta_count.load(std::memory_order_relaxed);
    metric_meta& meta = metas.slot(id_new);
    meta.name = std::string{name};
    meta.kind = kind;
    meta.bounds = std::move(bounds);
    switch (kind) {
      case metric_kind::counter:
        meta.cell = next_cell;
        next_cell += 1;
        break;
      case metric_kind::histogram:
        // bounds buckets + the +inf bucket + the sum (as double bits).
        meta.cell = next_cell;
        next_cell += meta.bounds.size() + 2;
        break;
      case metric_kind::gauge:
        meta.cell = gauge_count;
        gauge_cells.slot(gauge_count).store(double_to_bits(0.0),
                                            std::memory_order_relaxed);
        ++gauge_count;
        break;
    }
    by_name.emplace(std::string{name}, id_new);
    // Publish: readers that acquire a count > id_new see the fields.
    meta_count.store(id_new + 1, std::memory_order_release);
    return id_new;
  }

  /// Lock-free metric lookup for the mutation paths: slots below the
  /// published count are immutable, so after the acquire load the meta
  /// may be read without the mutex. Every hook passes through here, so
  /// the checks build their messages only when they throw — a passing
  /// call allocates nothing.
  [[nodiscard]] const metric_meta& meta_of(std::size_t metric,
                                           metric_kind kind) const {
    if (metric >= meta_count.load(std::memory_order_acquire)) {
      throw error("obs: metric id out of range");
    }
    const metric_meta& meta = metas.at(metric);
    if (meta.kind != kind) {
      throw error("obs: metric '" + meta.name + "' used as the wrong kind");
    }
    return meta;
  }

  /// This thread's shard, adopted (from a parked one) or created on
  /// first touch.
  shard& local() {
    if (tls_shard.slot != nullptr) return *tls_shard.slot;
    const std::scoped_lock lock(mu);
    return detail::adopt_or_make(tls_shard, shards,
                                 [] { return std::make_unique<shard>(); });
  }
};

registry::registry() : st_(std::make_unique<state>()) {}

std::size_t registry::counter(std::string_view name) {
  return st_->register_metric(name, metric_kind::counter, {});
}

std::size_t registry::gauge(std::string_view name) {
  return st_->register_metric(name, metric_kind::gauge, {});
}

std::size_t registry::histogram(std::string_view name,
                                std::vector<double> bounds) {
  require(!bounds.empty(), "obs: histogram '" + std::string{name} +
                               "' needs at least one bucket bound");
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    require(bounds[i - 1] < bounds[i],
            "obs: histogram '" + std::string{name} +
                "' bounds must be strictly increasing");
  }
  return st_->register_metric(name, metric_kind::histogram,
                              std::move(bounds));
}

std::atomic<std::uint64_t>& registry::counter_cell(std::size_t id) {
  const metric_meta& meta = st_->meta_of(id, metric_kind::counter);
  return st_->local().cell(meta.cell);
}

void registry::set(std::size_t id, double value) {
  const metric_meta& meta = st_->meta_of(id, metric_kind::gauge);
  st_->gauge_cells.at(meta.cell).store(double_to_bits(value),
                                       std::memory_order_relaxed);
}

void registry::observe(std::size_t id, double value) {
  const metric_meta& meta = st_->meta_of(id, metric_kind::histogram);
  // First bucket whose upper bound >= value: buckets are (lo, hi], with
  // the +inf overflow bucket past the last bound.
  std::size_t bucket = meta.bounds.size();
  for (std::size_t i = 0; i < meta.bounds.size(); ++i) {
    if (value <= meta.bounds[i]) {
      bucket = i;
      break;
    }
  }
  shard& sh = st_->local();
  detail::add(sh.cell(meta.cell + bucket), 1);
  auto& sum_cell = sh.cell(meta.cell + meta.bounds.size() + 1);
  sum_cell.store(double_to_bits(bits_to_double(sum_cell.load(
                                    std::memory_order_relaxed)) +
                                value),
                 std::memory_order_relaxed);
}

snapshot registry::scrape() const {
  const std::scoped_lock lock(st_->mu);
  snapshot out;
  const std::size_t count = st_->meta_count.load(std::memory_order_acquire);
  for (std::size_t id = 0; id < count; ++id) {
    const metric_meta& meta = st_->metas.at(id);
    switch (meta.kind) {
      case metric_kind::counter: {
        std::uint64_t total = 0;
        for (const auto& sh : st_->shards) total += sh->read(meta.cell);
        out.counters.push_back(counter_sample{meta.name, total});
        break;
      }
      case metric_kind::gauge:
        out.gauges.push_back(gauge_sample{
            meta.name, bits_to_double(st_->gauge_cells.at(meta.cell).load(
                           std::memory_order_relaxed))});
        break;
      case metric_kind::histogram: {
        histogram_sample h;
        h.name = meta.name;
        h.bounds = meta.bounds;
        h.buckets.assign(meta.bounds.size() + 1, 0);
        for (const auto& sh : st_->shards) {
          for (std::size_t b = 0; b < h.buckets.size(); ++b) {
            h.buckets[b] += sh->read(meta.cell + b);
          }
          h.sum += bits_to_double(
              sh->read(meta.cell + meta.bounds.size() + 1));
        }
        out.histograms.push_back(std::move(h));
        break;
      }
    }
  }
  return out;
}

registry& registry::global() {
  static registry* const instance = new registry;  // never destroyed
  return *instance;
}

}  // namespace bsched::obs
