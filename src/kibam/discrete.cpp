#include "kibam/discrete.hpp"

#include <atomic>
#include <cmath>

#include "kibam/advance.hpp"
#include "util/error.hpp"

namespace bsched::kibam {

namespace {

std::uint64_t next_serial() noexcept {
  static std::atomic<std::uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

discretization::discretization(const battery_parameters& params,
                               load::step_sizes steps)
    : serial_(next_serial()), params_(params), steps_(steps) {
  validate(params_);
  require(steps_.time_step_min > 0 && steps_.charge_unit_amin > 0,
          "discretization: step sizes must be positive");
  const double units = params_.capacity_amin / steps_.charge_unit_amin;
  n0_ = static_cast<std::int64_t>(std::llround(units));
  require(n0_ >= 2, "discretization: capacity must span >= 2 charge units");
  require(std::abs(static_cast<double>(n0_) - units) < 1e-6,
          "discretization: capacity must be an integral number of units");
  c_pm_ = static_cast<std::int64_t>(std::llround(params_.c * 1000.0));
  require(c_pm_ > 0 && c_pm_ < 1000,
          "discretization: c out of permille range");

  // Precompute eq. (6) for every reachable height difference. m never
  // exceeds the number of draws plus the largest per-draw increment, and
  // there are at most N draws; 2N is a safe ceiling.
  const auto max_m = static_cast<std::size_t>(2 * n0_ + 2);
  recovery_.resize(max_m + 1, 0);
  for (std::size_t m = 2; m <= max_m; ++m) {
    const double minutes =
        std::log(static_cast<double>(m) / (static_cast<double>(m) - 1.0)) /
        params_.k_prime;
    // Floor at one step: a zero entry would mean instantaneous recovery,
    // which neither the stepper nor the timed automaton can express.
    recovery_[m] =
        std::max<std::int64_t>(1, std::llround(minutes / steps_.time_step_min));
  }
}

state discretization::to_continuous(std::int64_t n, std::int64_t m) const {
  const double gamma = static_cast<double>(n) * steps_.charge_unit_amin;
  const double delta =
      static_cast<double>(m) * steps_.charge_unit_amin / params_.c;
  return {delta, gamma};
}

discrete_state full_discrete(const discretization& d) {
  return {d.total_units(), 0, 0, 0, false};
}

step_event step(const discretization& d, discrete_state& s,
                const load::draw_rate& rate) {
  // Recovery process (height-difference automaton, Fig. 5(b)).
  if (s.m >= 2) {
    ++s.recovery_elapsed;
    if (s.recovery_elapsed >= d.recovery_steps(s.m)) {
      --s.m;
      s.recovery_elapsed = 0;
    }
  } else {
    s.recovery_elapsed = 0;
  }

  // Discharge process (total-charge automaton, Fig. 5(a)).
  if (rate.steps > 0 && !s.empty) {
    ++s.discharge_elapsed;
    if (s.discharge_elapsed >= rate.steps) {
      s.n -= rate.units;
      s.m += rate.units;
      s.discharge_elapsed = 0;
      BSCHED_ASSERT(s.n >= 0);
      if (d.is_empty(s.n, s.m)) {
        s.empty = true;
        return step_event::died;
      }
      return step_event::drew;
    }
  }
  return step_event::none;
}

double discrete_lifetime(const discretization& d, const load::trace& trace,
                         double horizon_min) {
  discrete_state s = full_discrete(d);
  load::epoch_cursor cursor{trace};
  std::int64_t step_count = 0;
  const double t_step = d.steps().time_step_min;
  // Per-epoch rates, filled lazily so rate_for is only consulted for
  // epochs the battery actually reaches (it throws on too-coarse grids).
  // Distinct epochs are the prefix plus one cycle; later global indices
  // wrap back into the cycle range.
  const std::size_t n_prefix = trace.prefix().size();
  const std::size_t n_cycle = trace.cycle().size();
  std::vector<load::draw_rate> rates(n_prefix + n_cycle,
                                     load::draw_rate{0, -1});
  std::size_t idx = 0;
  while (static_cast<double>(step_count) * t_step < horizon_min) {
    const load::epoch& e = cursor.current();
    const std::size_t key =
        idx < rates.size() ? idx : n_prefix + (idx - n_prefix) % n_cycle;
    if (rates[key].steps < 0) {
      rates[key] = e.current_a > 0 ? load::rate_for(e.current_a, d.steps())
                                   : load::draw_rate{0, 0};
    }
    const load::draw_rate& rate = rates[key];
    const auto epoch_steps =
        static_cast<std::int64_t>(std::llround(e.duration_min / t_step));
    s.discharge_elapsed = 0;  // go_on resets c_disch at each epoch start
    if (epoch_steps > 0) {
      const advance_result a = detail::advance_state(d, s, rate, epoch_steps);
      step_count += a.steps;
      if (a.event == step_event::died) {
        return static_cast<double>(step_count) * t_step;
      }
    }
    cursor.advance();
    ++idx;
  }
  throw error("discrete_lifetime: battery survived the analysis horizon");
}

}  // namespace bsched::kibam
