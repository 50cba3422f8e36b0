#include "pta/model.hpp"

#include "util/error.hpp"

namespace bsched::pta {

loc_id automaton::add_location(location loc) {
  locations_.push_back(std::move(loc));
  outgoing_.emplace_back();
  return locations_.size() - 1;
}

void automaton::set_initial(loc_id loc) {
  require(loc < locations_.size(), "automaton: initial location undefined");
  initial_ = loc;
}

void automaton::add_edge(edge e) {
  require(e.from < locations_.size() && e.to < locations_.size(),
          "automaton: edge endpoints undefined in " + name_);
  edges_.push_back(std::move(e));
  outgoing_[edges_.back().from].push_back(edges_.size() - 1);
}

loc_id automaton::initial() const {
  require(initial_ != npos, "automaton: no initial location in " + name_);
  return initial_;
}

const std::vector<std::size_t>& automaton::outgoing(loc_id from) const {
  BSCHED_ASSERT(from < outgoing_.size());
  return outgoing_[from];
}

clock_id network::add_clock(std::string name, std::int32_t cap) {
  require(cap > 0, "network: clock cap must be positive");
  clock_names_.push_back(std::move(name));
  clock_caps_.push_back(cap);
  return clock_names_.size() - 1;
}

var_ref network::add_var(std::string name, std::int64_t init) {
  initial_vars_.push_back(init);
  var_names_.push_back(name);
  return {initial_vars_.size() - 1, std::move(name)};
}

array_ref network::add_array(std::string name,
                             std::vector<std::int64_t> init) {
  require(!init.empty(), "network: arrays must be non-empty");
  const std::size_t base = initial_vars_.size();
  for (const std::int64_t v : init) {
    initial_vars_.push_back(v);
    var_names_.push_back(name);
  }
  return {base, init.size(), std::move(name)};
}

chan_id network::add_channel(std::string name, bool broadcast) {
  channel_names_.push_back(std::move(name));
  channel_broadcast_.push_back(broadcast);
  return channel_names_.size() - 1;
}

automaton_id network::add_automaton(std::string name) {
  automata_.emplace_back(std::move(name));
  return automata_.size() - 1;
}

automaton& network::at(automaton_id id) {
  require(id < automata_.size(), "network: automaton id out of range");
  return automata_[id];
}

const automaton& network::at(automaton_id id) const {
  require(id < automata_.size(), "network: automaton id out of range");
  return automata_[id];
}

bool network::is_broadcast(chan_id c) const {
  require(c < channel_broadcast_.size(), "network: channel id out of range");
  return channel_broadcast_[c];
}

std::int32_t network::clock_cap(clock_id c) const {
  require(c < clock_caps_.size(), "network: clock id out of range");
  return clock_caps_[c];
}

const std::string& network::channel_name(chan_id c) const {
  require(c < channel_names_.size(), "network: channel id out of range");
  return channel_names_[c];
}

void network::check() const {
  require(!automata_.empty(), "network: no automata");
  for (const automaton& a : automata_) {
    (void)a.initial();  // throws when unset
    const auto check_constraint = [&](const clock_constraint& cc) {
      require(cc.clock < clock_names_.size(),
              "network: clock constraint references unknown clock in " +
                  a.name());
      require(cc.bound.valid(),
              "network: clock constraint without bound in " + a.name());
    };
    for (const location& l : a.locations()) {
      for (const clock_constraint& cc : l.invariant) check_constraint(cc);
    }
    for (const edge& e : a.edges()) {
      for (const clock_constraint& cc : e.clock_guards) check_constraint(cc);
      if (e.dir != sync_dir::none) {
        require(e.channel < channel_names_.size(),
                "network: edge references unknown channel in " + a.name());
      }
      for (const clock_id r : e.resets) {
        require(r < clock_names_.size(),
                "network: reset references unknown clock in " + a.name());
      }
    }
  }
}

}  // namespace bsched::pta
