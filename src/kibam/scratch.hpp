// Scratch-state pooling for rollouts and subtree search.
//
// The exact search and the rollout schedulers copy the bank's per-battery
// state vector at every branch point ("copy the vector, step the copy,
// drop it"). At a few dozen bytes per bank those copies are pure
// allocator traffic; scratch_pool keeps the dropped vectors on a
// freelist so the steady state allocates nothing. One pool serves one
// thread (each search and each rollout policy owns one) — there is
// deliberately no locking on this hot path.
#pragma once

#include <utility>
#include <vector>

#include "kibam/discrete.hpp"

namespace bsched::kibam {

class scratch_pool {
 public:
  /// A pooled vector, returned to the freelist on destruction.
  class lease {
   public:
    lease(scratch_pool& pool, std::vector<discrete_state> v) noexcept
        : pool_(&pool), v_(std::move(v)) {}
    lease(lease&& other) noexcept
        : pool_(std::exchange(other.pool_, nullptr)),
          v_(std::move(other.v_)) {}
    lease(const lease&) = delete;
    lease& operator=(const lease&) = delete;
    lease& operator=(lease&&) = delete;
    ~lease() {
      if (pool_ != nullptr) pool_->free_.push_back(std::move(v_));
    }

    [[nodiscard]] std::vector<discrete_state>& operator*() noexcept {
      return v_;
    }
    [[nodiscard]] const std::vector<discrete_state>& operator*()
        const noexcept {
      return v_;
    }

   private:
    scratch_pool* pool_;
    std::vector<discrete_state> v_;
  };

  /// A pooled copy of `src` (capacity recycled from the freelist).
  [[nodiscard]] lease copy_of(const std::vector<discrete_state>& src) {
    if (free_.empty()) return lease{*this, src};
    std::vector<discrete_state> v = std::move(free_.back());
    free_.pop_back();
    v.assign(src.begin(), src.end());
    return lease{*this, std::move(v)};
  }

 private:
  std::vector<std::vector<discrete_state>> free_;
};

}  // namespace bsched::kibam
