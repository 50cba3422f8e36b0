#include "opt/search.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "kibam/scratch.hpp"
#include "obs/obs.hpp"
#include "opt/policies.hpp"
#include "sched/simulator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bsched::opt {

namespace {

constexpr std::int64_t k_inf = std::numeric_limits<std::int64_t>::max() / 4;

/// Packs a battery state into one word for hashing/sorting. Nodes always
/// have discharge_elapsed == 0, so three counters and the empty bit suffice.
/// The word does not encode the battery type: memo keys keep same-type
/// batteries in contiguous groups, and candidate signatures carry the type
/// alongside.
std::uint64_t pack(const kibam::discrete_state& b) {
  BSCHED_ASSERT(b.n >= 0 && b.n < (1 << 21));
  BSCHED_ASSERT(b.m >= 0 && b.m < (1 << 21));
  BSCHED_ASSERT(b.recovery_elapsed >= 0 && b.recovery_elapsed < (1 << 21));
  return (static_cast<std::uint64_t>(b.n) << 43) |
         (static_cast<std::uint64_t>(b.m) << 22) |
         (static_cast<std::uint64_t>(b.recovery_elapsed) << 1) |
         static_cast<std::uint64_t>(b.empty);
}

/// A branch candidate: a battery and its identity for deduplication.
/// Batteries are interchangeable iff they share a type and a packed state.
struct candidate {
  std::size_t battery;
  std::size_t type;
  std::uint64_t state;
};

/// Steps in an epoch at the grid's granularity.
std::int64_t epoch_steps(const load::epoch& e, const load::step_sizes& s) {
  return std::llround(e.duration_min / s.time_step_min);
}

/// One epoch of the load on the search's grid.
struct grid_epoch {
  std::int64_t len;      ///< Length in time steps.
  load::draw_rate rate;  ///< Jobs only; {0, 0} for idle epochs.
  bool job;              ///< Draws charge (current > 0).
};

/// The load discretized once per search: the prefix, then one cycle, as
/// grid epochs. Global epoch indices map onto it the way load::trace::at
/// maps them onto epochs, so the hot paths read a table entry instead of
/// re-rounding the epoch length and re-deriving its draw rate per visit.
/// Built eagerly: every job epoch's rate_for runs here, so a load the grid
/// cannot realise throws before the search starts.
class grid_load {
 public:
  grid_load(const load::trace& load, const load::step_sizes& steps)
      : prefix_(load.prefix().size()) {
    epochs_.reserve(load.prefix().size() + load.cycle().size());
    const auto add = [&](const std::vector<load::epoch>& epochs) {
      for (const load::epoch& e : epochs) {
        const bool job = e.current_a > 0;
        epochs_.push_back({epoch_steps(e, steps),
                           job ? load::rate_for(e.current_a, steps)
                               : load::draw_rate{0, 0},
                           job});
        if (job) max_draw_units_ = std::max(max_draw_units_,
                                            epochs_.back().rate.units);
      }
    };
    add(load.prefix());
    add(load.cycle());
  }

  /// Canonical index of global epoch `epoch` (also the memo key's epoch).
  [[nodiscard]] std::size_t canonical(std::size_t epoch) const noexcept {
    if (epoch < prefix_) return epoch;
    return prefix_ + (epoch - prefix_) % (epochs_.size() - prefix_);
  }

  /// The canonical index following canonical index `k`.
  [[nodiscard]] std::size_t next(std::size_t k) const noexcept {
    return k + 1 == epochs_.size() ? prefix_ : k + 1;
  }

  /// Epoch by canonical index.
  [[nodiscard]] const grid_epoch& slot(std::size_t k) const noexcept {
    return epochs_[k];
  }

  /// Epoch by global index.
  [[nodiscard]] const grid_epoch& at(std::size_t epoch) const noexcept {
    return epochs_[canonical(epoch)];
  }

  /// Largest single draw in the load, units (1 when it has no job).
  [[nodiscard]] std::int64_t max_draw_units() const noexcept {
    return max_draw_units_;
  }

 private:
  std::vector<grid_epoch> epochs_;
  std::size_t prefix_;
  std::int64_t max_draw_units_ = 1;
};

/// One battery's supply curve for the trajectory bound: by wall-clock step
/// t it can have delivered at most
///   min(cap, (avail0 + g * ticks(t) - 1) / 1000 + max_draw)
/// charge units, where ticks(t) = min((re + t) / mr, sat) is an upper
/// bound on the recovery ticks fired by t (each fired tick consumes at
/// least mr accumulated recovery steps, the counter starts at re, and past
/// sat ticks the cap has taken over). Evaluated in that closed form: two
/// divisions per probe, whatever the probe order.
struct supply_cursor {
  std::int64_t cap;       ///< deliverable_units cap, in units.
  std::int64_t avail0;    ///< Available charge now, permille (>= 1).
  std::int64_t g;         ///< Permille returned per recovery tick.
  std::int64_t mr;        ///< Min steps between ticks; 0 = never fires.
  std::int64_t re;        ///< Recovery steps already accumulated.
  std::int64_t max_draw;  ///< Largest single draw, units.
  std::int64_t sat;       ///< Ticks after which the cap takes over.

  /// Supply in units by time `t` >= 0.
  [[nodiscard]] std::int64_t at(std::int64_t t) const {
    const std::int64_t ticks = mr > 0 ? std::min((re + t) / mr, sat) : 0;
    return std::min(cap, (avail0 + g * ticks - 1) / 1000 + max_draw);
  }
};

std::int64_t supply_at(const std::vector<supply_cursor>& cursors,
                       std::int64_t t) {
  std::int64_t s = 0;
  for (const supply_cursor& u : cursors) s += u.at(t);
  return s;
}

/// The trajectory-bound walk with an early-out threshold: returns the
/// first wall-clock step (from the start of epoch `epoch_index`) at which
/// the system provably cannot have served the load, or `limit + 1` as soon
/// as the walk passes `limit` without a violation (callers only compare
/// the result against `limit`, so the walk never costs more than the
/// incumbent's remaining-lifetime scale). `limit = k_inf` is the exact
/// public bound. The per-battery supply curves are built into `cursors`,
/// a caller-owned buffer reused across walks.
std::int64_t trajectory_walk(const kibam::bank& bank, const grid_load& grid,
                             const std::vector<kibam::discrete_state>& bats,
                             std::size_t epoch_index,
                             std::int64_t max_draw_units, std::int64_t limit,
                             std::vector<supply_cursor>& cursors) {
  cursors.clear();
  std::int64_t cap_total = 0;
  for (std::size_t b = 0; b < bats.size(); ++b) {
    if (bats[b].empty) continue;
    const kibam::discretization& d = bank.disc(b);
    const std::int64_t c = d.c_permille();
    const std::int64_t g = 1000 - c;
    const std::int64_t n = bats[b].n;
    const std::int64_t m = bats[b].m;
    // Alive states always have avail >= 1; clamping keeps the bound
    // admissible (supply only grows) for arbitrary caller states.
    const std::int64_t avail0 = std::max<std::int64_t>(
        1, d.available_permille(n, m));
    const std::int64_t cap = deliverable_units(d, n, max_draw_units);
    std::int64_t mr = 0;
    std::int64_t re = 0;
    std::int64_t sat = 0;
    if (g > 0) {
      // Height stays below the empty criterion while alive, and rises
      // only by drawing down n, so m_reach caps every future alive
      // height; the recovery table is decreasing in m, so ticks are
      // spaced at least recovery_steps(m_reach) apart.
      const std::int64_t m_cap = (c * n - 1) / g;
      const std::int64_t m_reach = std::min(m_cap, m + n);
      if (m_reach >= 2) {
        mr = d.recovery_steps(m_reach);
        re = bats[b].recovery_elapsed;
        const std::int64_t want = (cap - max_draw_units) * 1000 + 1 - avail0;
        sat = want > 0 ? (want + g - 1) / g : 0;
      }
    }
    cursors.push_back({cap, avail0, g, mr, re, max_draw_units, sat});
    cap_total += cap;
  }
  if (cursors.empty()) return 0;

  // Walk the load, tracking wall-clock steps t0 and cumulative demand in
  // units: the system dies no later than the first draw whose demand
  // exceeds the summed supply, or reaches the total deliverable cap (the
  // cap counts each battery's death draw, so meeting it kills the bank).
  std::int64_t t0 = 0;
  std::int64_t demand = 0;
  std::size_t k = grid.canonical(epoch_index);
  for (std::size_t guard = 0; guard < 100'000'000; ++guard, k = grid.next(k)) {
    const grid_epoch& e = grid.slot(k);
    if (!e.job) {
      t0 += e.len;
      if (t0 > limit) return limit + 1;
      continue;
    }
    const load::draw_rate rate = e.rate;
    const std::int64_t draws = e.len / rate.steps;
    // Supply is nondecreasing in t: when the epoch's whole demand fits
    // under the supply at its first draw, no draw inside can violate.
    const std::int64_t epoch_demand = demand + draws * rate.units;
    if (epoch_demand < cap_total &&
        epoch_demand <= supply_at(cursors, t0 + rate.steps)) {
      demand = epoch_demand;
      t0 += e.len;
      if (t0 > limit) return limit + 1;
      continue;
    }
    for (std::int64_t j = 1; j <= draws; ++j) {
      const std::int64_t t = t0 + j * rate.steps;
      if (t > limit) return limit + 1;
      demand += rate.units;
      if (demand >= cap_total) return t;
      const std::int64_t s = supply_at(cursors, t);
      if (demand > s) return t;
      // Demand grows by rate.units per draw while supply never shrinks,
      // so every later draw whose cumulative demand stays within today's
      // slack is provably safe — jump straight past them. This turns the
      // draw-by-draw walk into one iteration per supply step.
      const std::int64_t slack = std::min(s, cap_total - 1) - demand;
      const std::int64_t skip = std::min(slack / rate.units, draws - j);
      j += skip;
      demand += skip * rate.units;
    }
    t0 += e.len;
    if (t0 > limit) return limit + 1;
  }
  throw error("trajectory_bound_steps: load drains too slowly to bound");
}

/// The transposition table. Node values are keyed on (canonical epoch,
/// battery states sorted within same-type groups). An `exact` entry is the
/// node's true optimum; an inexact one is an admissible *upper bound*
/// computed under some pruning floor (see searcher), which stays valid at
/// any floor at or above it. Exact entries win over bounds, and a tighter
/// bound replaces a looser one. Nothing is evicted: every entry is an
/// expanded node, so the search's max_nodes bounds the table.
///
/// Flat, so a node costs no allocation. Every key of one search has the
/// same width, so keys are passed as *frames* of 1 + key_words words — the
/// key's hash, then the key — and stored inline in one insertion-order
/// arena of records [frame | packed entry]. An open-addressed index of
/// entry numbers finds them: linear probing from the hash's low bits,
/// doubled past load 1/2.
class memo_table {
 public:
  struct entry {
    std::int64_t value = 0;
    bool exact = false;
  };

  /// Marks an empty index slot. Entry numbers stay below it: at most
  /// max_nodes entries are ever stored, numbered from 0.
  static constexpr std::uint32_t k_no_entry =
      std::numeric_limits<std::uint32_t>::max();

  explicit memo_table(std::size_t key_words)
      : frame_(1 + key_words), index_(16, k_no_entry) {}

  /// Words in a key frame: the hash, then `key_words` key words.
  [[nodiscard]] std::size_t frame_words() const noexcept { return frame_; }

  /// Seals a frame whose key words are written: sets its hash word,
  /// chaining splitmix64's full-avalanche mix over the words so the low
  /// bits linear probing reads are well spread.
  void seal(std::uint64_t* frame) const noexcept {
    std::uint64_t h = 0;
    for (std::size_t w = 1; w < frame_; ++w) {
      std::uint64_t state = h ^ frame[w];
      h = splitmix64(state);
    }
    frame[0] = h;
  }

  /// The usable entry for the key in `frame`: any exact entry, or an upper
  /// bound not above `floor` (a value the caller discards against its
  /// incumbent anyway). Empty when there is none.
  [[nodiscard]] std::optional<entry> lookup(const std::uint64_t* frame,
                                            std::int64_t floor) const {
    const std::uint32_t n = index_[find(frame)];
    if (n == k_no_entry) return std::nullopt;
    const entry e = unpack(record(n)[frame_]);
    if (!e.exact && e.value > floor) return std::nullopt;
    return e;
  }

  /// Inserts or improves the entry for the key in `frame`: exact beats
  /// inexact, and a smaller upper bound beats a larger one.
  void store(const std::uint64_t* frame, entry e) {
    BSCHED_ASSERT(e.value >= 0);
    const std::size_t slot = find(frame);
    if (index_[slot] != k_no_entry) {
      std::uint64_t& held_word = record(index_[slot])[frame_];
      const entry held = unpack(held_word);
      const bool better = (e.exact && !held.exact) ||
                          (e.exact == held.exact && e.value < held.value);
      if (better) held_word = pack_entry(e);
      return;  // a re-walk revisits a live entry
    }
    const auto n = static_cast<std::uint32_t>(count_++);
    arena_.resize(arena_.size() + frame_ + 1);
    std::uint64_t* rec = record(n);
    std::copy_n(frame, frame_, rec);
    rec[frame_] = pack_entry(e);
    index_[slot] = n;
    if (2 * count_ > index_.size()) grow();
  }

  [[nodiscard]] std::uint64_t size() const noexcept { return count_; }

 private:
  static std::uint64_t pack_entry(entry e) noexcept {
    return static_cast<std::uint64_t>(e.value) << 1 | (e.exact ? 1 : 0);
  }
  static entry unpack(std::uint64_t word) noexcept {
    return {static_cast<std::int64_t>(word >> 1), (word & 1) != 0};
  }

  [[nodiscard]] std::uint64_t* record(std::uint32_t n) noexcept {
    return arena_.data() + std::size_t{n} * (frame_ + 1);
  }
  [[nodiscard]] const std::uint64_t* record(std::uint32_t n) const noexcept {
    return arena_.data() + std::size_t{n} * (frame_ + 1);
  }

  /// The index slot holding the frame's key, or the empty slot ending its
  /// probe run (where it would be inserted).
  [[nodiscard]] std::size_t find(const std::uint64_t* frame) const noexcept {
    const std::size_t mask = index_.size() - 1;
    for (std::size_t i = frame[0] & mask;; i = (i + 1) & mask) {
      const std::uint32_t n = index_[i];
      if (n == k_no_entry || std::equal(frame, frame + frame_, record(n))) {
        return i;
      }
    }
  }

  /// Doubles the index and re-inserts every record from its cached hash.
  void grow() {
    index_.assign(index_.size() * 2, k_no_entry);
    const std::size_t mask = index_.size() - 1;
    for (std::uint32_t n = 0; n < count_; ++n) {
      std::size_t i = record(n)[0] & mask;
      while (index_[i] != k_no_entry) i = (i + 1) & mask;
      index_[i] = n;
    }
  }

  std::size_t frame_;     ///< Words per key frame; records add one.
  std::uint64_t count_ = 0;
  std::vector<std::uint64_t> arena_;   ///< Records in insertion order.
  std::vector<std::uint32_t> index_;   ///< Entry numbers; power-of-two size.
};

/// The recursive branch-and-bound over one scratch pool and one memo.
///
/// Value contract, held inductively by node_value and run_from: a returned
/// value is always an admissible upper bound on the true optimum, and it
/// *is* the true optimum whenever it exceeds the pruning floor passed in.
/// Minimisation disables pruning entirely, so every value is exact there.
class searcher {
 public:
  searcher(const kibam::bank& bank, const load::trace& load,
           const search_options& opts, bool minimize)
      : bank_(bank),
        load_(load),
        opts_(opts),
        minimize_(minimize),
        grid_(load, bank.steps()),
        memo_(1 + bank.size()) {
    // Every stored entry is an expanded node, so max_nodes bounds the
    // entry numbers the memo's 32-bit index holds.
    require(opts.max_nodes <= memo_table::k_no_entry,
            "optimal_schedule: max_nodes above 2^32 - 1 overflows the "
            "memo's 32-bit entry numbers");
    // Battery indices ordered by type: the memo key sorts states within
    // each contiguous same-type group, so permutations of interchangeable
    // batteries collapse while distinct types never mix.
    group_order_.reserve(bank.size());
    for (std::size_t t = 0; t < bank.type_count(); ++t) {
      group_begin_.push_back(group_order_.size());
      for (std::size_t b = 0; b < bank.size(); ++b) {
        if (bank.type_of(b) == t) group_order_.push_back(b);
      }
    }
    group_begin_.push_back(group_order_.size());
  }

  optimal_result run() {
    BSCHED_TRACE_SPAN(solve_span, "opt.search.solve");
    const bool cycle_has_job = std::ranges::any_of(
        load_.cycle(), [](const load::epoch& e) { return e.current_a > 0; });
    require(cycle_has_job,
            "optimal_schedule: the load cycle must contain a job");

    std::vector<kibam::discrete_state> bats = bank_.full_states();
    std::size_t epoch = 0;
    std::int64_t lead_in = 0;
    skip_idle(bats, epoch, lead_in);

    // Warm start: seed the incumbent from one horizon-1 lookahead rollout.
    // Any realized schedule's lifetime is a lower bound on the optimum, so
    // the root floor stays below the true value and the root result stays
    // exact.
    std::int64_t floor = -1;
    if (!minimize_ && opts_.prune) {
      const std::unique_ptr<sched::policy> la = lookahead_policy(1);
      const double lifetime_min =
          sched::simulate_discrete(bank_, load_, *la).lifetime_min;
      stats_.rollouts += la->stats().rollouts;
      const auto incumbent = static_cast<std::uint64_t>(
          std::llround(lifetime_min / bank_.steps().time_step_min));
      stats_.incumbent_from_lookahead = incumbent;
      floor = std::max(floor,
                       static_cast<std::int64_t>(incumbent) - lead_in - 1);
    }

    const std::int64_t best = node_value(bats, epoch, floor);

    optimal_result out;
    out.lifetime_min = static_cast<double>(lead_in + best) *
                       bank_.steps().time_step_min;
    reconstruct(std::move(bats), epoch, best, out.decisions);
    out.stats = stats_;
    out.stats.memo_entries = memo_.size();
    // Live export: a sweep runs many solves, so these accumulate in the
    // registry as leases progress — visible in heartbeat telemetry long
    // before the end-of-run search_stats fold.
    BSCHED_COUNTER_ADD("opt.search.nodes_total", out.stats.nodes);
    BSCHED_COUNTER_ADD("opt.search.memo_hits_total", out.stats.memo_hits);
    BSCHED_COUNTER_ADD("opt.search.pruned_total", out.stats.pruned);
    BSCHED_COUNTER_ADD("opt.search.pruned_by_bound_total",
                       out.stats.pruned_by_bound);
    BSCHED_COUNTER_ADD("opt.search.rollouts_total", out.stats.rollouts);
    BSCHED_GAUGE_SET("opt.search.memo_entries",
                     static_cast<double>(out.stats.memo_entries));
    return out;
  }

 private:
  /// Advances through idle epochs (all batteries recovering), accumulating
  /// the consumed steps, until `epoch` refers to a job epoch.
  void skip_idle(std::vector<kibam::discrete_state>& bats, std::size_t& epoch,
                 std::int64_t& consumed) const {
    for (const grid_epoch* e = &grid_.at(epoch); !e->job;
         e = &grid_.at(++epoch)) {
      if (e->len > 0) {
        bank_.advance_all(bats, kibam::bank::idle, {0, 0}, e->len);
      }
      consumed += e->len;
    }
  }

  /// Pushes the memo key frame of (`bats`, `epoch`) onto the key stack
  /// and returns its offset there. Callers hold the offset, not a
  /// pointer: deeper nodes push their own frames and may reallocate the
  /// stack. The frame is popped with keys_.resize(offset).
  std::size_t push_key(const std::vector<kibam::discrete_state>& bats,
                       std::size_t epoch) {
    const std::size_t at = keys_.size();
    keys_.resize(at + memo_.frame_words());
    std::uint64_t* frame = keys_.data() + at;
    std::uint64_t* w = frame + 1;
    *w++ = grid_.canonical(epoch);
    for (std::size_t t = 0; t + 1 < group_begin_.size(); ++t) {
      std::uint64_t* start = w;
      for (std::size_t i = group_begin_[t]; i < group_begin_[t + 1]; ++i) {
        *w++ = pack(bats[group_order_[i]]);
      }
      std::sort(start, w);
    }
    memo_.seal(frame);
    return at;
  }

  /// Pushes the distinct branch candidates at a decision or hand-over
  /// point onto the candidate stack — one representative (lowest index)
  /// per (type, state) class of the alive batteries — and returns the
  /// frame's offset; the frame ends at the stack's current size. Like key
  /// frames, read it by offset and pop it with cands_.resize(offset).
  std::size_t push_candidates(const std::vector<kibam::discrete_state>& bats) {
    const std::size_t at = cands_.size();
    for (std::size_t i = 0; i < bats.size(); ++i) {
      if (bats[i].empty) continue;
      const candidate c{i, bank_.type_of(i), pack(bats[i])};
      const bool seen = std::any_of(
          cands_.begin() + static_cast<std::ptrdiff_t>(at), cands_.end(),
          [&c](const candidate& o) {
            return o.type == c.type && o.state == c.state;
          });
      if (!seen) cands_.push_back(c);
    }
    return at;
  }

  /// Best additional steps from the start of job epoch `epoch`; exact when
  /// the result exceeds `floor`, otherwise an upper bound at most `floor`.
  std::int64_t node_value(const std::vector<kibam::discrete_state>& bats,
                          std::size_t epoch, std::int64_t floor) {
    const std::size_t key = push_key(bats, epoch);
    std::int64_t value = 0;
    if (const auto hit = memo_.lookup(&keys_[key], floor)) {
      ++stats_.memo_hits;
      if (!hit->exact) ++stats_.pruned;  // bounded reuse: a cut, not a value
      value = hit->value;
    } else {
      value = expand(bats, epoch, floor, key);
    }
    keys_.resize(key);
    return value;
  }

  /// The expansion half of node_value, for callers that already looked the
  /// state up (and missed): branches over the distinct candidates and
  /// stores the result under the caller's key frame (an offset into the
  /// key stack; the caller pops it).
  std::int64_t expand(const std::vector<kibam::discrete_state>& bats,
                      std::size_t epoch, std::int64_t floor, std::size_t key) {
    ++stats_.nodes;
    require(stats_.nodes <= opts_.max_nodes,
            "optimal_schedule: node budget exhausted; relax the load or "
            "coarsen the grid");

    std::int64_t best = minimize_ ? k_inf : -1;
    const std::size_t first = push_candidates(bats);
    const std::size_t last = cands_.size();
    for (std::size_t k = first; k < last; ++k) {
      auto copy = scratch_.copy_of(bats);
      const std::int64_t v = run_from(*copy, epoch, 0, cands_[k].battery,
                                      minimize_ ? 0 : std::max(best, floor));
      best = minimize_ ? std::min(best, v) : std::max(best, v);
    }
    cands_.resize(first);
    BSCHED_ASSERT(best >= 0 && best < k_inf);
    memo_.store(&keys_[key], {best, minimize_ || best > floor});
    return best;
  }

  /// Simulates job epoch `epoch` from step `offset` with `active` serving.
  /// Returns the best additional steps measured from the entry point,
  /// under the node_value contract with `prune_below` as the floor.
  std::int64_t run_from(std::vector<kibam::discrete_state>& bats,
                        std::size_t epoch, std::int64_t offset,
                        std::size_t active, std::int64_t prune_below) {
    const grid_epoch& e = grid_.at(epoch);
    const load::draw_rate rate = e.rate;
    const std::int64_t total = e.len;
    bats[active].discharge_elapsed = 0;

    std::int64_t local = 0;
    for (std::int64_t i = offset; i < total;) {
      // Event-horizon advance: the search only branches at deaths, so
      // jumping straight to the next death leaves the tree untouched.
      const kibam::advance_result adv =
          bank_.advance_all(bats, active, rate, total - i);
      local += adv.steps;
      i += adv.steps;
      if (adv.event != kibam::step_event::died) break;
      const bool all_empty = std::ranges::all_of(
          bats, [](const auto& b) { return b.empty; });
      if (all_empty) return local;
      // Forced hand-over: branch over the distinct alive batteries.
      std::int64_t best = minimize_ ? k_inf : -1;
      const std::size_t first = push_candidates(bats);
      const std::size_t last = cands_.size();
      for (std::size_t k = first; k < last; ++k) {
        auto copy = scratch_.copy_of(bats);
        const std::int64_t v =
            run_from(*copy, epoch, i, cands_[k].battery,
                     minimize_ ? 0 : std::max(best, prune_below - local));
        best = minimize_ ? std::min(best, v) : std::max(best, v);
      }
      cands_.resize(first);
      return local + best;
    }

    // Epoch completed; cross idle epochs to the next decision point. The
    // memo is consulted before the bound: siblings funnel into shared
    // follow-on states, so a hit (exact value or a reusable cut, both
    // admissible) saves the trajectory walk entirely, and the walk runs
    // only on states the search has genuinely never priced. Expansion
    // happens in exactly the same cases as bound-then-memo — node counts
    // and results are bit-identical, only the hit/pruned_by_bound split
    // in the stats shifts.
    std::size_t next = epoch + 1;
    std::int64_t consumed = local;
    skip_idle(bats, next, consumed);
    for (auto& b : bats) b.discharge_elapsed = 0;

    const std::int64_t floor = prune_below - consumed;
    const std::size_t key = push_key(bats, next);
    const std::int64_t value = follow_on(bats, next, floor, key);
    keys_.resize(key);
    return consumed + value;
  }

  /// run_from's follow-on decision point at `epoch`, whose key frame the
  /// caller pushed at `key`: a memo hit, else a bound cut, else expansion.
  std::int64_t follow_on(const std::vector<kibam::discrete_state>& bats,
                         std::size_t epoch, std::int64_t floor,
                         std::size_t key) {
    if (const auto hit = memo_.lookup(&keys_[key], floor)) {
      ++stats_.memo_hits;
      if (!hit->exact) ++stats_.pruned;  // bounded reuse: a cut, not a value
      return hit->value;
    }
    if (!minimize_ && opts_.prune) {
      // The admissible trajectory bound, walked in the cursor buffer and
      // early-outing past the floor.
      const std::int64_t w = trajectory_walk(
          bank_, grid_, bats, epoch, grid_.max_draw_units(), floor, cursors_);
      if (w <= floor) {
        ++stats_.pruned;
        ++stats_.pruned_by_bound;
        return w;  // <= floor: an admissible upper bound.
      }
    }
    return expand(bats, epoch, floor, key);
  }

  /// Rebuilds the decision list of a finished run by re-walking the warmed
  /// memo with the known optimum threaded as a target: at every branch the
  /// first candidate whose subtree *meets* the target is committed. The
  /// trial walk is the committed walk (try_probe) — a failed candidate
  /// rewinds its decisions, a successful one keeps them — so the chosen
  /// branch is simulated once, not once to test and once to record.
  /// Sub-target candidates can never spuriously match: the threaded
  /// target is always the exact parent value, so every candidate's value
  /// is at most the remainder it is probed against, and a chain that
  /// passes each exactness check achieves it exactly. The list is
  /// deterministic whatever bounds the memo holds.
  void reconstruct(std::vector<kibam::discrete_state> bats, std::size_t epoch,
                   std::int64_t target, std::vector<std::size_t>& decisions) {
    while (true) {
      walk_result wr{};
      std::size_t chosen = bats.size();
      const std::size_t mark = decisions.size();
      for (std::size_t i = 0; i < bats.size() && chosen == bats.size(); ++i) {
        if (bats[i].empty) continue;
        decisions.push_back(i);
        auto copy = scratch_.copy_of(bats);
        if (try_probe(*copy, epoch, 0, i, target, decisions, wr)) {
          chosen = i;
          bats = *copy;
        } else {
          decisions.resize(mark);
        }
      }
      BSCHED_ASSERT(chosen < bats.size());
      if (wr.died) return;
      epoch = wr.next_epoch;
      target = wr.remaining;
    }
  }

  struct walk_result {
    bool died;
    std::size_t next_epoch;
    std::int64_t remaining;  ///< Expected value of the follow-on node.
  };

  /// Deterministic twin of run_from that simulates the branch (`epoch`,
  /// `offset`, `active`) checking that it achieves exactly `target`
  /// additional steps: hand-over choices are committed to `decisions` as
  /// the walk goes, and the first mismatch (a death off target, or a
  /// completed epoch whose follow-on value misses the remainder) rewinds
  /// them and returns false. Acceptance is equivalent to "this branch's
  /// exact value equals target": the threaded target is always the exact
  /// parent maximum (minimum when minimising), so no candidate's value
  /// can exceed it, and the per-step exactness checks reject any chain
  /// that would undershoot.
  bool try_probe(std::vector<kibam::discrete_state>& bats, std::size_t epoch,
                 std::int64_t offset, std::size_t active, std::int64_t target,
                 std::vector<std::size_t>& decisions, walk_result& out) {
    const grid_epoch& e = grid_.at(epoch);
    const load::draw_rate rate = e.rate;
    const std::int64_t total = e.len;
    bats[active].discharge_elapsed = 0;

    std::int64_t local = 0;
    for (std::int64_t i = offset; i < total;) {
      const kibam::advance_result adv =
          bank_.advance_all(bats, active, rate, total - i);
      local += adv.steps;
      i += adv.steps;
      if (adv.event != kibam::step_event::died) break;
      if (std::ranges::all_of(bats, [](const auto& b) { return b.empty; })) {
        if (local != target) return false;
        out = {true, epoch, 0};
        return true;
      }
      // Commit the first hand-over branch achieving the rest of the target.
      const std::int64_t rest = target - local;
      if (rest <= 0) return false;  // already outlived the target
      const std::size_t mark = decisions.size();
      for (std::size_t b = 0; b < bats.size(); ++b) {
        if (bats[b].empty) continue;
        decisions.push_back(b);
        auto copy = scratch_.copy_of(bats);
        if (try_probe(*copy, epoch, i, b, rest, decisions, out)) {
          bats = *copy;
          return true;
        }
        decisions.resize(mark);
      }
      return false;
    }

    // Epoch completed: the follow-on decision point must be worth the
    // remainder exactly. Values above the floor are exact, so the memo
    // lookup (or evaluation) below can never spuriously match.
    std::size_t next = epoch + 1;
    std::int64_t consumed = local;
    skip_idle(bats, next, consumed);
    for (auto& b : bats) b.discharge_elapsed = 0;
    const std::int64_t rest = target - consumed;
    if (rest <= 0) return false;
    if (node_value(bats, next, minimize_ ? 0 : rest - 1) != rest) {
      return false;
    }
    out = {false, next, rest};
    return true;
  }

  const kibam::bank& bank_;
  const load::trace& load_;
  const search_options& opts_;
  const bool minimize_;
  const grid_load grid_;  ///< `load_` on the bank's grid, read by every walk.
  std::vector<std::size_t> group_order_;  ///< Battery indices, type-grouped.
  std::vector<std::size_t> group_begin_;  ///< Group offsets in group_order_.
  memo_table memo_;
  std::vector<std::uint64_t> keys_;  ///< Key stack: one frame per open node.
  std::vector<candidate> cands_;     ///< Candidate stack: one frame per branch.
  kibam::scratch_pool scratch_;
  std::vector<supply_cursor> cursors_;  ///< trajectory_walk's buffer.
  search_stats stats_;
};

}  // namespace

std::int64_t deliverable_units(const kibam::discretization& d, std::int64_t n,
                               std::int64_t max_draw_units) {
  require(n >= 0, "deliverable_units: negative charge");
  require(max_draw_units >= 1, "deliverable_units: draws deliver >= 1 unit");
  const std::int64_t c = d.c_permille();
  // Every draw of u units lowers the available charge by 1000 u permille
  // (c u directly, (1000 - c) u through the height difference) while a
  // recovery tick returns only (1000 - c); since recovered height was
  // first raised by a draw already counted, the battery is still alive
  // before its final draw only while c * delivered < c * n - (1000 - c).
  // That strands ceil((1000 - c + 1) / c) units minus the final draw,
  // whatever the recovery schedule — an admissible per-battery cap.
  const std::int64_t before_final = c * n - (1000 - c) - 1;
  if (before_final < 0) return std::min(n, max_draw_units);
  return std::min(n, before_final / c + max_draw_units);
}

std::int64_t trajectory_bound_steps(const kibam::bank& bank,
                                    const std::vector<kibam::discrete_state>&
                                        bats,
                                    const load::trace& load,
                                    std::size_t epoch_index,
                                    std::int64_t max_draw_units) {
  require(bats.size() == bank.size(),
          "trajectory_bound_steps: one state per bank battery");
  require(max_draw_units >= 1,
          "trajectory_bound_steps: draws deliver >= 1 unit");
  std::vector<supply_cursor> cursors;
  return trajectory_walk(bank, grid_load{load, bank.steps()}, bats,
                         epoch_index, max_draw_units, k_inf, cursors);
}

optimal_result optimal_schedule(const kibam::bank& bank,
                                const load::trace& load,
                                const search_options& opts) {
  searcher s{bank, load, opts, /*minimize=*/false};
  return s.run();
}

optimal_result optimal_schedule(const kibam::discretization& disc,
                                std::size_t battery_count,
                                const load::trace& load,
                                const search_options& opts) {
  return optimal_schedule(kibam::bank{disc, battery_count}, load, opts);
}

optimal_result worst_schedule(const kibam::bank& bank,
                              const load::trace& load,
                              const search_options& opts) {
  searcher s{bank, load, opts, /*minimize=*/true};
  return s.run();
}

}  // namespace bsched::opt
