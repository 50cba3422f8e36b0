// The whole n-shard plan of a sweep, built from the library's
// single-shard accessor: the tests check that the n shards tile the item
// stream and shard, run and merge whole plans.
#pragma once

#include <cstddef>
#include <vector>

#include "api/sweep.hpp"
#include "dist/shard.hpp"
#include "util/error.hpp"

namespace bsched::dist {

/// plan_shard(sw, k, n) for k = 0..n-1. Throws bsched::error when n == 0.
inline std::vector<shard> plan_shards(const api::sweep& sw, std::size_t n) {
  require(n >= 1, "plan_shards: need at least one shard");
  std::vector<shard> out;
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) out.push_back(plan_shard(sw, k, n));
  return out;
}

}  // namespace bsched::dist
