// Networks of linear priced timed automata (Section 3 of the paper).
//
// The builder API mirrors the ingredients of Uppaal Cora models: locations
// (with invariants, committed flags and cost rates), switches (with clock
// and data guards, channel synchronisation, assignments, clock resets and
// cost updates), binary and broadcast channels, and integer variables and
// arrays shared across the network.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "pta/expr.hpp"

namespace bsched::pta {

using clock_id = std::size_t;
using chan_id = std::size_t;
using loc_id = std::size_t;
using automaton_id = std::size_t;

inline constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

/// Comparison operators allowed in clock constraints.
enum class cmp : std::uint8_t { lt, le, ge, gt, eq };

/// Atomic clock constraint `clock op bound`; the bound is a data expression
/// evaluated against the current variable store (so invariants like
/// `c_disch <= cur_times[j]` work as in the paper's model).
struct clock_constraint {
  clock_id clock;
  cmp op;
  expr bound;
};

/// Handle to a scalar variable.
struct var_ref {
  std::size_t slot = npos;
  std::string name;

  [[nodiscard]] operator expr() const {  // NOLINT(google-explicit-constructor)
    return expr::variable(slot, name);
  }
  [[nodiscard]] lvalue lv() const { return lvalue{slot, name}; }
};

/// Handle to an integer array.
struct array_ref {
  std::size_t base = npos;
  std::size_t size = 0;
  std::string name;

  [[nodiscard]] expr operator[](expr index) const {
    return expr::element(base, size, std::move(index), name);
  }
  [[nodiscard]] expr operator[](std::int64_t index) const {
    return (*this)[lit(index)];
  }
  [[nodiscard]] lvalue cell(expr index) const {
    return lvalue{base, size, std::move(index), name};
  }
};

/// Direction of a channel synchronisation on an edge.
enum class sync_dir : std::uint8_t { none, send, receive };

/// A location of one automaton.
struct location {
  std::string name;
  bool committed = false;
  std::vector<clock_constraint> invariant;
  expr cost_rate;  ///< cost' == rate; empty means 0.
};

/// Assigns a clock to a (data-expression) value on edge firing; an
/// extension over plain resets used to clamp clocks when their invariant
/// bound shrinks (see the TA-KiBaM height-difference automaton).
struct clock_set {
  clock_id clock;
  expr value;
};

/// A switch (edge) of one automaton.
struct edge {
  loc_id from = npos;
  loc_id to = npos;
  std::vector<clock_constraint> clock_guards;
  expr guard;  ///< Data guard; empty means true.
  chan_id channel = npos;
  sync_dir dir = sync_dir::none;
  std::vector<assignment> assignments;
  std::vector<clock_id> resets;
  std::vector<clock_set> clock_sets;  ///< Applied after `resets`.
  expr cost_update;  ///< cost += value on firing; empty means 0.
};

/// One timed automaton within a network.
class automaton {
 public:
  explicit automaton(std::string name) : name_(std::move(name)) {}

  loc_id add_location(location loc);
  void set_initial(loc_id loc);
  void add_edge(edge e);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] loc_id initial() const;
  [[nodiscard]] const std::vector<location>& locations() const noexcept {
    return locations_;
  }
  [[nodiscard]] const std::vector<edge>& edges() const noexcept {
    return edges_;
  }
  /// Edges leaving `from` (indices into edges()).
  [[nodiscard]] const std::vector<std::size_t>& outgoing(loc_id from) const;

 private:
  std::string name_;
  std::vector<location> locations_;
  std::vector<edge> edges_;
  std::vector<std::vector<std::size_t>> outgoing_;
  loc_id initial_ = npos;
};

/// A network of timed automata with shared variables and channels.
class network {
 public:
  /// Declares a clock; `cap` bounds the stored clock value (values are
  /// clamped at `cap`, sound when `cap` exceeds every constant the clock is
  /// compared against — the standard region-abstraction bound).
  clock_id add_clock(std::string name,
                     std::int32_t cap = std::numeric_limits<std::int32_t>::max());

  var_ref add_var(std::string name, std::int64_t init);
  array_ref add_array(std::string name, std::vector<std::int64_t> init);
  chan_id add_channel(std::string name, bool broadcast = false);

  automaton_id add_automaton(std::string name);
  [[nodiscard]] automaton& at(automaton_id id);
  [[nodiscard]] const automaton& at(automaton_id id) const;

  [[nodiscard]] std::size_t automata_count() const noexcept {
    return automata_.size();
  }
  [[nodiscard]] std::size_t clock_count() const noexcept {
    return clock_names_.size();
  }
  [[nodiscard]] const var_store& initial_vars() const noexcept {
    return initial_vars_;
  }
  [[nodiscard]] bool is_broadcast(chan_id c) const;
  [[nodiscard]] std::int32_t clock_cap(clock_id c) const;
  [[nodiscard]] const std::string& channel_name(chan_id c) const;

  /// Validates cross-references (locations, channels, clocks) and that
  /// every automaton has an initial location. Throws bsched::error.
  void check() const;

 private:
  std::vector<automaton> automata_;
  std::vector<std::string> clock_names_;
  std::vector<std::int32_t> clock_caps_;
  std::vector<std::string> channel_names_;
  std::vector<bool> channel_broadcast_;
  var_store initial_vars_;
  std::vector<std::string> var_names_;
};

}  // namespace bsched::pta
