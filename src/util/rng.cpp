#include "util/rng.hpp"

#include "util/error.hpp"

namespace bsched {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

std::uint64_t rng::derive(std::uint64_t seed, std::uint64_t stream) noexcept {
  // Jump the splitmix64 state ahead by `stream` increments (the state
  // advances by the golden-ratio constant per draw), then mix once: the
  // result is exactly the stream-th output of splitmix64 seeded at `seed`.
  std::uint64_t state = seed + stream * 0x9e3779b97f4a7c15ULL;
  return splitmix64(state);
}

rng::rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

rng::result_type rng::operator()() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t rng::below(std::uint64_t bound) noexcept {
  BSCHED_ASSERT(bound > 0);
  // Bitmask rejection: exact uniformity, expected < 2 draws.
  std::uint64_t mask = bound - 1;
  mask |= mask >> 1;
  mask |= mask >> 2;
  mask |= mask >> 4;
  mask |= mask >> 8;
  mask |= mask >> 16;
  mask |= mask >> 32;
  while (true) {
    const std::uint64_t x = (*this)() & mask;
    if (x < bound) return x;
  }
}

bool rng::bernoulli(double p) noexcept {
  // A uniform double in [0, 1) from 53 random mantissa bits.
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53 < p;
}

}  // namespace bsched
