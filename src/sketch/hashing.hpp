// t-wise independent hashing over F_p (polynomial hash family).
//
// A degree-(t−1) polynomial with uniform coefficients evaluated at the key
// is a t-wise independent family — the independence level the s-sample
// recovery analysis of Barkay–Porat–Shalem [4] requires (Θ(log(1/δ))-wise).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sketch/field.hpp"
#include "util/rng.hpp"

namespace kc::sketch {

/// A uniform fingerprint evaluation point r ∈ [2, p − 1).
[[nodiscard]] inline std::uint64_t draw_point(Rng& rng) noexcept {
  return 2 + rng() % (kPrime - 3);
}

/// The point draw_point makes first from the stream Rng(seed).
[[nodiscard]] inline std::uint64_t draw_point(std::uint64_t seed) noexcept {
  Rng rng(seed);
  return draw_point(rng);
}

/// Exact h mod range without a division (Barrett reduction).  With
/// m = ⌊(2^64 − 1)/range⌋, m·range > 2^64 − 1 − range, so
/// q = ⌊h·m / 2^64⌋ is ⌊h/range⌋ or one less for every 64-bit h, and one
/// conditional subtract finishes.
class BucketReducer {
 public:
  explicit BucketReducer(std::uint64_t range) noexcept
      : range_(range), m_(~std::uint64_t{0} / range) {}

  [[nodiscard]] std::uint64_t operator()(std::uint64_t h) const noexcept {
    const __uint128_t hm = static_cast<__uint128_t>(h) * m_;
    const auto q = static_cast<std::uint64_t>(hm >> 64);
    std::uint64_t r = h - q * range_;
    if (r >= range_) r -= range_;
    return r;
  }

 private:
  std::uint64_t range_;
  std::uint64_t m_;
};

class PolyHash {
 public:
  /// `independence` = t ≥ 1; coefficients drawn deterministically from seed.
  PolyHash(int independence, std::uint64_t seed);

  /// Hash value in [0, p).
  [[nodiscard]] std::uint64_t operator()(std::uint64_t key) const noexcept {
    return eval(embed_key(key));
  }

  /// Number of leading "subsample levels" the embedded key x =
  /// embed_key(key) survives: the largest ℓ ≥ 0 with h(key)/p < 2^{-ℓ},
  /// capped at `max_level`.  Used by the F0 estimator's nested level
  /// sampling.
  [[nodiscard]] int level_at(std::uint64_t x, int max_level) const noexcept;

  /// Coefficients, highest degree first (the Horner order).
  [[nodiscard]] std::span<const std::uint64_t> coefficients() const noexcept {
    return coeffs_;
  }

 private:
  std::vector<std::uint64_t> coeffs_;  // degree t−1 … 0

  /// The polynomial at an already embedded key x = embed_key(key).
  [[nodiscard]] std::uint64_t eval(std::uint64_t x) const noexcept;
};

}  // namespace kc::sketch
