#include "kibam/parameters.hpp"

#include "util/error.hpp"

namespace bsched::kibam {

namespace {

/// Itsy pocket-computer Li-ion cell fit (c, k') used throughout the paper.
constexpr double itsy_c = 0.166;
constexpr double itsy_k_prime = 0.122;  // 1/min

}  // namespace

void validate(const battery_parameters& p) {
  require(p.capacity_amin > 0, "battery: capacity must be positive");
  require(p.c > 0 && p.c < 1, "battery: c must lie in (0, 1)");
  require(p.k_prime > 0, "battery: k' must be positive");
}

battery_parameters battery_b1() { return itsy_battery(5.5); }

battery_parameters battery_b2() { return itsy_battery(11.0); }

battery_parameters itsy_battery(double capacity_amin) {
  battery_parameters p{capacity_amin, itsy_c, itsy_k_prime};
  validate(p);
  return p;
}

}  // namespace bsched::kibam
