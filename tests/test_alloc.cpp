// Allocation-count regressions for the per-call hot paths: an obs counter
// hook, the dKiBaM advance kernel, the draw-rate lookup and the search's
// per-battery cap must not touch the heap once warm, and materializing a
// stochastic load must allocate a fixed number of blocks whatever its
// length. These are counts, not timings, so they hold on any box and
// under every sanitizer.
//
// This file replaces the global operator new/delete with counting
// pass-throughs to malloc/free, so it builds as its own executable
// (bsched_alloc_tests): the main suite keeps the sanitizers' own
// new/delete checks. Every suite here is single-threaded, so a global
// counter measures exactly the code between two reads of it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "api/scenario.hpp"
#include "kibam/bank.hpp"
#include "kibam/parameters.hpp"
#include "load/discretize.hpp"
#include "obs/obs.hpp"
#include "opt/search.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// The array forms' default definitions forward to these. Kept out of
// line: inlined into a new-expression's cleanup path, the free() inside
// a replacement delete reads to gcc as a mismatched new/free pair
// (-Wmismatched-new-delete), though the pair is ours.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace bsched {
namespace {

/// Heap allocations made while running `f`.
template <typename F>
std::uint64_t allocations_in(F&& f) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

void bump_counter() { BSCHED_COUNTER_ADD("test.alloc.bumps_total", 1); }

TEST(Alloc, CounterHookAllocatesNothing) {
  bump_counter();  // registers the counter and this thread's shard
  EXPECT_EQ(allocations_in([] {
              for (int i = 0; i < 100; ++i) bump_counter();
            }),
            0u);
}

TEST(Alloc, BankAdvanceAllocatesNothing) {
  const kibam::bank bank{{kibam::battery_b1(), kibam::battery_b2()}};
  std::vector<kibam::discrete_state> states = bank.full_states();
  (void)bank.advance_all(states, 0, {1, 4}, 100);  // warms its obs hooks
  states = bank.full_states();
  EXPECT_EQ(allocations_in([&] {
              for (int i = 0; i < 10; ++i) {
                (void)bank.advance_all(states, 0, {1, 4}, 100);
              }
            }),
            0u);
}

TEST(Alloc, RateForAllocatesNothing) {
  EXPECT_EQ(allocations_in([] {
              for (const double amps : {0.25, 0.5, 0.3, 0.07}) {
                (void)load::rate_for(amps);
              }
            }),
            0u);
}

TEST(Alloc, DeliverableUnitsAllocatesNothing) {
  const kibam::discretization d{kibam::battery_b1()};
  EXPECT_EQ(allocations_in([&] {
              for (std::int64_t n = 0; n < 100; ++n) {
                (void)opt::deliverable_units(d, n, 2);
              }
            }),
            0u);
}

TEST(Alloc, MaterializeCostDoesNotGrowWithTheJobCount) {
  // The job vector and the trace's cycle: a fixed count, however many
  // epochs the trace validates.
  const auto count_for = [](std::size_t jobs) {
    api::random_load_spec random;
    random.count = jobs;
    const api::load_spec spec{random};
    return allocations_in([&] { (void)spec.materialize(); });
  };
  const std::uint64_t short_load = count_for(10);
  EXPECT_EQ(count_for(40), short_load);
  EXPECT_LE(short_load, 2u);
}

}  // namespace
}  // namespace bsched
