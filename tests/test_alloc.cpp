// Allocation-count regressions for the per-call hot paths: an obs counter
// hook, the dKiBaM advance kernel, the draw-rate lookup, the search's
// per-battery cap and a protocol message's field reads must not touch the
// heap once warm, and the advance kernel's transition memo costs one
// block per thread; an exact search must not allocate per node;
// materializing a stochastic load and decoding a message header must
// allocate a fixed number of blocks whatever their length;
// decoding a shard aggregate allocates for what it builds, not per field
// it looks up. These are counts, not timings, so they hold on any box and
// under every sanitizer.
//
// This file replaces the global operator new/delete with counting
// pass-throughs to malloc/free, so it builds as its own executable
// (bsched_alloc_tests): the main suite keeps the sanitizers' own
// new/delete checks. Every suite here runs one thread at a time (the
// memo tests start a fresh thread and wait for it), so a global counter
// measures exactly the code between two reads of it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "api/scenario.hpp"
#include "dist/codec.hpp"
#include "kibam/bank.hpp"
#include "kibam/parameters.hpp"
#include "load/discretize.hpp"
#include "load/jobs.hpp"
#include "net/message.hpp"
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

TEST(Alloc, TransitionMemoIsOneBlockPerThreadOnItsFirstAdvance) {
  // bank::advance_all memoises transitions in one block per thread,
  // allocated on that thread's first advance: a fresh thread pays exactly
  // one allocation there and none after. An advance here registers the
  // kernel's obs counters and the bump there the thread's obs shard, so
  // only the memo is left to count.
  const kibam::bank bank{{kibam::battery_b1(), kibam::battery_b2()}};
  std::vector<kibam::discrete_state> warm = bank.full_states();
  (void)bank.advance_all(warm, 0, {1, 4}, 100);
  std::uint64_t first = 0;
  std::uint64_t later = 0;
  std::thread fresh{[&] {
    bump_counter();
    std::vector<kibam::discrete_state> states = bank.full_states();
    first = allocations_in(
        [&] { (void)bank.advance_all(states, 0, {1, 4}, 100); });
    later = allocations_in([&] {
      for (int i = 0; i < 10; ++i) {
        (void)bank.advance_all(states, i % 2, {1, 4}, 100);
      }
    });
  }};
  fresh.join();
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(later, 0u);
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

TEST(Alloc, ExactSearchAllocationsDoNotGrowWithTheNodeCount) {
  // The memo, the key and candidate stacks and the scratch states all
  // grow geometrically, so a search pays for its size in a logarithmic
  // number of blocks, not per node. Measured: 162 blocks for the
  // 80 159-node ILl 250 search and 67 for the 22-node CL alt one; a
  // node-based memo made about 7.5 per node (599 764).
  const kibam::discretization d{kibam::battery_b1()};
  const load::trace large = load::paper_trace(load::test_load::ill_250);
  const load::trace small = load::paper_trace(load::test_load::cl_alt);
  (void)opt::optimal_schedule(d, 2, small);  // warms the obs hooks
  opt::optimal_result large_run;
  const std::uint64_t large_count =
      allocations_in([&] { large_run = opt::optimal_schedule(d, 2, large); });
  opt::optimal_result small_run;
  const std::uint64_t small_count =
      allocations_in([&] { small_run = opt::optimal_schedule(d, 2, small); });
  ASSERT_EQ(large_run.stats.nodes, 80159u);
  ASSERT_EQ(small_run.stats.nodes, 22u);
  EXPECT_LT(large_count, 400u);
  EXPECT_LE(large_count, 4 * small_count);
}

TEST(Alloc, RepeatedSearchOnOneThreadAllocatesNoMore) {
  // The first search on a fresh thread also pays for the thread's
  // transition memo; a second identical search reuses it.
  const kibam::discretization d{kibam::battery_b1()};
  const load::trace t = load::paper_trace(load::test_load::ill_250);
  std::uint64_t first = 0;
  std::uint64_t second = 0;
  std::thread fresh{[&] {
    first = allocations_in([&] { (void)opt::optimal_schedule(d, 2, t); });
    second = allocations_in([&] { (void)opt::optimal_schedule(d, 2, t); });
  }};
  fresh.join();
  EXPECT_LE(second, first);
  EXPECT_GT(first, 0u);
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

TEST(Alloc, MessageFieldReadsAllocateNothing) {
  const net::message hb = net::decode(
      "bsched-msg v1 heartbeat done=120 epoch=3 lease=7 session=2\n");
  std::uint64_t sum = 0;
  EXPECT_EQ(allocations_in([&] {
              sum += hb.u64("session") + hb.u64("lease") + hb.u64("epoch") +
                     hb.u64("done");
              sum += hb.str("lease").size();
              sum += hb.has("done") ? 1 : 0;
            }),
            0u);
  EXPECT_EQ(sum, 2u + 7u + 3u + 120u + 1u + 1u);
}

TEST(Alloc, MessageDecodeCostDoesNotGrowWithTheHeader) {
  // The field map's nodes and the strings past the small-string buffer: a
  // fixed count per field, however long the header line is.
  const auto count_for = [](std::size_t value_bytes) {
    const std::string frame = "bsched-msg v1 heartbeat done=120 epoch=3 "
                              "lease=7 note=" +
                              std::string(value_bytes, 'x') + "\nbody";
    return allocations_in([&] { (void)net::decode(frame); });
  };
  const std::uint64_t short_value = count_for(10);
  EXPECT_EQ(count_for(1000), count_for(100));
  // One more block than a 10-byte value: the long value's own string.
  EXPECT_LE(count_for(1000), short_value + 1);
}

/// A 10-cell shard aggregate as a fleet worker sends it: descriptors of
/// realistic length and 16 distinct lifetimes and residuals per cell.
dist::shard_aggregate fixed_aggregate() {
  dist::shard_aggregate agg;
  agg.shard_index = 1;
  agg.shard_count = 3;
  agg.first_item = 10;
  agg.last_item = 40;
  agg.grid_cells = 10;
  agg.replications = 4;
  agg.seed = 2009;
  agg.stats.runs = 30;
  agg.stats.evaluated = 30;
  for (std::size_t i = 0; i < agg.grid_cells; ++i) {
    dist::cell_record c;
    c.cell = i;
    c.load = "random:count=40,idle=1,p=0.3,seed=" + std::to_string(i);
    c.policy = "lookahead:horizon=2";
    c.fidelity = "discrete";
    c.label = "2xC=5.5 | " + c.load + " | " + c.policy + " | discrete";
    for (int k = 0; k < 16; ++k) {
      c.agg.lifetime.add(10.0 + 0.37 * k + 0.01 * static_cast<double>(i));
      c.agg.residual.add(0.05 * k);
    }
    c.agg.search.rollouts = 40 + i;
    agg.cells.push_back(std::move(c));
  }
  return agg;
}

TEST(Alloc, ShardDecodeAllocatesPerRecordNotPerLookup) {
  // Measured: 10 cells x (3 descriptor strings past the small-string
  // buffer + 2 value-count vectors) + 5 growth steps of the cell vector.
  // A decoder that builds a token list or a message string per field
  // lookup costs over a thousand.
  const std::string wire = dist::encode_str(fixed_aggregate());
  dist::shard_aggregate back;
  const std::uint64_t n =
      allocations_in([&] { back = dist::decode_str(wire); });
  EXPECT_EQ(back, fixed_aggregate());
  EXPECT_LE(n, 55u) << wire.size() << "-byte aggregate";
}

}  // namespace
}  // namespace bsched
