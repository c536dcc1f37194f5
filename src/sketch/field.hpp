// Arithmetic in the prime field F_p, p = 2^61 − 1 (Mersenne).
//
// All sketch fingerprints, hash families, and the deterministic power-sum
// recovery operate over this field: p is large enough that point counts
// (≤ n < 2^40) and cell ids (< 2^60) embed injectively, and the Mersenne
// structure gives fast reduction.

#pragma once

#include <cstdint>

namespace kc::sketch {

inline constexpr std::uint64_t kPrime = (std::uint64_t{1} << 61) - 1;

namespace detail {

/// Reduction of a 128-bit value modulo 2^61−1.
[[nodiscard]] constexpr std::uint64_t reduce128(__uint128_t x) noexcept {
  // Fold twice: x = hi·2^61 + lo ≡ hi + lo (mod p).
  std::uint64_t lo = static_cast<std::uint64_t>(x) & kPrime;
  std::uint64_t hi = static_cast<std::uint64_t>(x >> 61);
  std::uint64_t r = lo + hi;  // ≤ 2p, two conditional subtractions reduce
  if (r >= kPrime) r -= kPrime;
  if (r >= kPrime) r -= kPrime;
  return r;
}

}  // namespace detail

[[nodiscard]] constexpr std::uint64_t add_mod(std::uint64_t a,
                                              std::uint64_t b) noexcept {
  std::uint64_t r = a + b;  // a, b < 2^61 so no overflow in 64 bits
  if (r >= kPrime) r -= kPrime;
  return r;
}

[[nodiscard]] constexpr std::uint64_t sub_mod(std::uint64_t a,
                                              std::uint64_t b) noexcept {
  return a >= b ? a - b : a + kPrime - b;
}

[[nodiscard]] constexpr std::uint64_t mul_mod(std::uint64_t a,
                                              std::uint64_t b) noexcept {
  return detail::reduce128(static_cast<__uint128_t>(a) * b);
}

[[nodiscard]] constexpr std::uint64_t pow_mod(std::uint64_t base,
                                              std::uint64_t exp) noexcept {
  std::uint64_t result = 1;
  base %= kPrime;
  while (exp > 0) {
    if (exp & 1) result = mul_mod(result, base);
    base = mul_mod(base, base);
    exp >>= 1;
  }
  return result;
}

/// ξ mod p for a signed ξ.  The negation runs in uint64_t, where it is
/// defined for INT64_MIN too (−INT64_MIN does not fit in int64_t).
[[nodiscard]] constexpr std::uint64_t signed_mod(std::int64_t v) noexcept {
  if (v >= 0) return static_cast<std::uint64_t>(v) % kPrime;
  const std::uint64_t a =
      (std::uint64_t{0} - static_cast<std::uint64_t>(v)) % kPrime;
  return a == 0 ? 0 : kPrime - a;
}

/// Multiplicative inverse (a must be non-zero mod p).
[[nodiscard]] constexpr std::uint64_t inv_mod(std::uint64_t a) noexcept {
  return pow_mod(a, kPrime - 2);
}

/// Canonical embedding of a 64-bit key into [1, p): keys must be < p − 1.
[[nodiscard]] constexpr std::uint64_t embed_key(std::uint64_t key) noexcept {
  return (key % (kPrime - 1)) + 1;
}

}  // namespace kc::sketch
