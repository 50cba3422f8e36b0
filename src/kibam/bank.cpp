#include "kibam/bank.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <utility>

#include "kibam/advance.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace bsched::kibam {

namespace {

// --- Per-thread single-battery transition memo (see bank.hpp). ---

/// True when every value fits the memo's 32-bit fields; anything else
/// bypasses the memo and runs the kernel.
template <typename... Ts>
bool fits32(Ts... v) noexcept {
  constexpr auto k_max =
      static_cast<std::uint64_t>(std::numeric_limits<std::int32_t>::max());
  return ((static_cast<std::uint64_t>(v) <= k_max) && ...);
}

/// Slot index in a table of 2^Bits entries: a multiplicative mix of three
/// packed key words.
template <unsigned Bits>
std::size_t slot_of(std::uint64_t a, std::uint64_t b,
                    std::uint64_t c) noexcept {
  std::uint64_t h = a * 0x9E3779B97F4A7C15ULL ^ b * 0xC2B2AE3D27D4EB4FULL ^
                    c * 0x165667B19E3779F9ULL;
  h ^= h >> 31;
  return static_cast<std::size_t>((h * 0xD6E8FEB86659FD93ULL) >> (64 - Bits));
}

std::uint64_t pack(std::int64_t lo, std::int64_t hi) noexcept {
  return static_cast<std::uint64_t>(lo) |
         (static_cast<std::uint64_t>(hi) << 32);
}

/// Narrows a value fits32 has admitted.
std::int32_t i32(std::int64_t v) noexcept {
  return static_cast<std::int32_t>(v);
}

/// A resting battery: (m, re, len) -> (m', re').
struct rest_entry {
  std::uint64_t serial;  ///< discretization::serial(); 0 marks a free slot.
  std::int32_t m, re, len;
  std::int32_t m_out, re_out;
};

/// A drawing battery: (m, re, de, rate, len) -> (m', re', de', draws,
/// need), valid for every n with c n > need.
struct draw_entry {
  std::uint64_t serial;
  std::int32_t m, re, de, units, period, len;
  std::int32_t m_out, re_out, de_out, draws;
  std::int64_t need;
};

class transition_memo {
 public:
  /// Advances a battery that draws nothing by `len` steps.
  void rest(const discretization& d, std::int64_t& m, std::int64_t& re,
            std::int64_t len) noexcept {
    // At most one recovery fire: stepping is cheaper than a lookup.
    if (m < 2 || d.recovery_steps(m) - re >= len || !fits32(m, re, len)) {
      detail::advance_rest(d, m, re, len);
      return;
    }
    rest_entry& e = rest_[slot_of<k_rest_bits>(d.serial(), pack(m, re), len)];
    if (e.serial == d.serial() && e.m == m && e.re == re && e.len == len) {
      m = e.m_out;
      re = e.re_out;
      return;
    }
    const std::int64_t m0 = m;
    const std::int64_t re0 = re;
    detail::advance_rest(d, m, re, len);
    if (fits32(re)) {
      e = {d.serial(), i32(m0), i32(re0), i32(len), i32(m), i32(re)};
    }
  }

  /// Advances the active battery by up to `len` steps, bit-identical to
  /// detail::advance_state.
  advance_result draw(const discretization& d, discrete_state& s,
                      const load::draw_rate& rate, std::int64_t len) {
    if (rate.steps <= 0 || s.empty) {
      rest(d, s.m, s.recovery_elapsed, len);
      return {len, step_event::none};
    }
    if (!fits32(s.m, s.recovery_elapsed, s.discharge_elapsed, rate.units,
                rate.steps, len)) {
      return detail::advance_state(d, s, rate, len);
    }
    draw_entry& e = draw_[slot_of<k_draw_bits>(
        d.serial() ^ pack(rate.units, rate.steps),
        pack(s.m, s.recovery_elapsed), pack(s.discharge_elapsed, len))];
    const bool same_window =
        e.serial == d.serial() && e.m == s.m && e.re == s.recovery_elapsed &&
        e.de == s.discharge_elapsed && e.units == rate.units &&
        e.period == rate.steps && e.len == len;
    const std::int64_t c = d.c_permille();
    // c n > need: no draw of the window is fatal, so this battery follows
    // the stored trajectory.
    if (same_window && c * s.n > e.need) {
      s.n -= e.draws * rate.units;
      s.m = e.m_out;
      s.recovery_elapsed = e.re_out;
      s.discharge_elapsed = e.de_out;
      return {len, step_event::none};
    }
    const discrete_state before = s;
    std::int64_t min_avail = std::numeric_limits<std::int64_t>::max();
    const advance_result out = detail::advance_state(
        d, s, rate, len, [&](const discrete_state& after) {
          min_avail =
              std::min(min_avail, d.available_permille(after.n, after.m));
        });
    // Only a window the battery survives has an n-independent outcome.
    if (out.event != step_event::none ||
        !fits32(s.m, s.recovery_elapsed, s.discharge_elapsed)) {
      return out;
    }
    const std::int64_t draws = (before.n - s.n) / rate.units;
    // Draw j's available charge is c n - need_j for any n, so the lowest
    // one seen here fixes the largest need_j.
    e = {d.serial(),
         i32(before.m),
         i32(before.recovery_elapsed),
         i32(before.discharge_elapsed),
         i32(rate.units),
         i32(rate.steps),
         i32(len),
         i32(s.m),
         i32(s.recovery_elapsed),
         i32(s.discharge_elapsed),
         i32(draws),
         draws == 0 ? -1 : c * before.n - min_avail};
    return out;
  }

 private:
  static constexpr unsigned k_rest_bits = 11;
  static constexpr unsigned k_draw_bits = 11;
  std::array<rest_entry, std::size_t{1} << k_rest_bits> rest_{};
  std::array<draw_entry, std::size_t{1} << k_draw_bits> draw_{};
};

// The per-thread bound bank.hpp documents: 2048 entries of each kind.
static_assert(sizeof(transition_memo) == 176 * 1024);

/// This thread's memo, allocated (zeroed) on its first advance and freed
/// at thread exit.
transition_memo& thread_memo() {
  thread_local std::unique_ptr<transition_memo> memo;
  if (!memo) memo = std::make_unique<transition_memo>();
  return *memo;
}

}  // namespace

bank::bank(const std::vector<battery_parameters>& batteries,
           const load::step_sizes& steps) {
  require(!batteries.empty(), "bank: need at least one battery");
  type_of_.reserve(batteries.size());
  // Dedup on the parameter sets directly — comparing raw parameters
  // avoids both the discretization construction per probe and chasing
  // discs_[t].params() through a larger object per comparison.
  std::vector<battery_parameters> seen;
  for (const auto& p : batteries) {
    std::size_t t = 0;
    while (t < seen.size() && !(seen[t] == p)) ++t;
    if (t == seen.size()) {
      seen.push_back(p);
      discs_.emplace_back(p, steps);
    }
    type_of_.push_back(t);
  }
}

bank::bank(discretization disc, std::size_t count)
    : type_of_(count, 0) {
  require(count >= 1, "bank: need at least one battery");
  discs_.push_back(std::move(disc));
}

std::vector<discrete_state> bank::full_states() const {
  std::vector<discrete_state> out;
  out.reserve(size());
  for (const std::size_t t : type_of_) out.push_back(full_discrete(discs_[t]));
  return out;
}

advance_result bank::advance_all(std::vector<discrete_state>& states,
                                 std::size_t active,
                                 const load::draw_rate& rate,
                                 std::int64_t max_steps) const {
  BSCHED_ASSERT(states.size() == size());
  transition_memo& memo = thread_memo();
  advance_result out{max_steps, step_event::none};
  if (active < states.size()) {
    BSCHED_ASSERT(max_steps > 0);
    out = memo.draw(discs_[type_of_[active]], states[active], rate, max_steps);
  }
  for (std::size_t b = 0; b < states.size(); ++b) {
    if (b == active) continue;
    discrete_state& s = states[b];
    memo.rest(discs_[type_of_[b]], s.m, s.recovery_elapsed, out.steps);
  }
  // Kernel-call granularity only (the event-horizon stepper amortizes
  // many time steps per call), so the hook stays off the per-step path.
  BSCHED_COUNTER_ADD("kibam.advance_calls_total", 1);
  BSCHED_COUNTER_ADD("kibam.advance_steps_total",
                     static_cast<std::uint64_t>(out.steps));
  return out;
}

std::int64_t bank::total_units() const {
  std::int64_t sum = 0;
  for (const std::size_t t : type_of_) sum += discs_[t].total_units();
  return sum;
}

}  // namespace bsched::kibam
