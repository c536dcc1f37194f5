// Deterministic pseudo-random number generation for all stochastic components.
//
// Every random choice in the library flows from an explicit 64-bit seed so
// that tests and benchmark runs are exactly reproducible.  We provide
// splitmix64 (used for seeding and as a cheap mixer / finalizer) and
// xoshiro256** (the main generator), both public-domain algorithms by
// Blackman & Vigna.

#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace kc {

/// Mixes a 64-bit value into a well-distributed 64-bit output.
/// splitmix64's finalizer; also usable as a hash for 64-bit keys.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// xoshiro256** generator.  Satisfies UniformRandomBitGenerator, so it can
/// be used with <random> distributions as well as with the helpers below.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& s : state_) {
      sm += 0x9e3779b97f4a7c15ULL;
      s = splitmix64(sm);
    }
  }

  // kc-lint-allow(exports): min, max and result_type make Rng a
  // UniformRandomBitGenerator; no caller needs the concept today.
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
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

  /// Uniform integer in [0, bound). bound must be > 0.
  [[nodiscard]] std::uint64_t uniform(std::uint64_t bound) noexcept {
    // Lemire's nearly-divisionless method.
    __uint128_t m = static_cast<__uint128_t>((*this)()) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        m = static_cast<__uint128_t>((*this)()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    uniform(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform_real(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform01();
  }

  /// Standard normal via Marsaglia polar method.
  [[nodiscard]] double normal() noexcept;

  /// true with probability p.
  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform01() < p; }

 private:
  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
  double spare_ = 0.0;
  bool has_spare_ = false;

  friend class RngNormalAccess;
};

}  // namespace kc
