// Deterministic pseudo-random number generation.
//
// All stochastic components of bsched take an explicit 64-bit seed so that
// every experiment is exactly reproducible. The generator is xoshiro256**,
// seeded through splitmix64 as recommended by its authors.
//
// This module is the tree's ONLY source of randomness: no rand()/srand(),
// std::random_device, std::mt19937 or wall-clock seeding anywhere else in
// src/, or replicated sweeps stop being reproducible and mergeable.
// scripts/lint_bsched.py (rule `rng-discipline`) enforces this.
#pragma once

#include <array>
#include <cstdint>

namespace bsched {

/// splitmix64 step; used for seeding and as a cheap stateless mixer.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** — fast, high-quality 64-bit PRNG with a 256-bit state.
/// Satisfies the essentials of UniformRandomBitGenerator.
class rng {
 public:
  using result_type = std::uint64_t;

  explicit rng(std::uint64_t seed) noexcept;

  /// Derives a child seed: `derive(seed, i)` is the i-th output of the
  /// splitmix64 stream started at `seed`, so adjacent streams are as
  /// independent as consecutive splitmix64 draws. Extra arguments nest —
  /// `derive(s, a, b) == derive(derive(s, a), b)` — which gives every
  /// (cell, replication, component) tuple of a sweep its own stream.
  [[nodiscard]] static std::uint64_t derive(std::uint64_t seed,
                                            std::uint64_t stream) noexcept;
  template <class... Streams>
  [[nodiscard]] static std::uint64_t derive(std::uint64_t seed,
                                            std::uint64_t stream,
                                            std::uint64_t next,
                                            Streams... rest) noexcept {
    return derive(derive(seed, stream), next, rest...);
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~static_cast<result_type>(0);
  }

  result_type operator()() noexcept;

  /// Uniform integer in [0, bound) using Lemire's rejection-free method
  /// (bias negligible for bound << 2^64, rejection applied otherwise).
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept;

  /// Bernoulli draw with success probability `p` in [0, 1].
  [[nodiscard]] bool bernoulli(double p) noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace bsched
