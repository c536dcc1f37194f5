// ℓ0 / F0 estimation for strict-turnstile streams — the stand-in for the
// Kane–Nelson–Woodruff distinct-elements estimator [32] (PAPER.md,
// "Documented substitutions"; Algorithm 5 uses it through Lemma 24 to pick
// the finest grid with at most s non-empty cells).
//
// Level sampling: a t-wise-independent hash assigns each key a geometric
// level (key survives level ℓ with probability 2^{-ℓ}, nested).  Each level
// keeps a small s₀-sparse recovery sketch, s₀ = Θ(1/ε²).  The estimate is
// count(ℓ*)·2^{ℓ*} at the first level that decodes completely: its expected
// occupancy is between s₀/2 and s₀, so the subsample concentrates to a
// (1±O(ε)) estimate.  Deletions are handled for free because the level of
// a key is a function of the key alone.
//
// Every level sketch evaluates its fingerprints at the estimator's one
// point r (see sparse_recovery.hpp for why sharing r keeps the
// Schwartz–Zippel bound), so an update computes r^x once for all levels;
// the level sketches keep their own row hashes.  Space: 8 words for the
// level hash plus the level sketches' words.

#pragma once

#include <cstdint>
#include <vector>

#include "sketch/sparse_recovery.hpp"

namespace kc::sketch {

class F0Estimator {
 public:
  /// eps = target relative accuracy; levels cover universes up to 2^max_level.
  /// The fingerprint point is drawn from `seed`.
  F0Estimator(double eps, std::uint64_t seed, int max_level = 40);

  /// As above, with fingerprints evaluated at the caller's point r.
  F0Estimator(double eps, std::uint64_t seed, int max_level,
              std::uint64_t point);

  void update(std::uint64_t key, std::int64_t delta) noexcept {
    const std::uint64_t x = embed_key(key);
    add(x, delta, signed_mod(delta), pow_mod(point_, x));
  }

  /// update() with the field work done by the caller: x = embed_key(key),
  /// d = signed_mod(delta), rx = point()^x mod p.
  void add(std::uint64_t x, std::int64_t delta, std::uint64_t d,
           std::uint64_t rx) noexcept {
    const int lvl =
        level_hash_.level_at(x, static_cast<int>(levels_.size()) - 1);
    // Nested levels: a key surviving to level ℓ is present in 0..ℓ.
    for (int l = 0; l <= lvl; ++l)
      levels_[static_cast<std::size_t>(l)].add(x, delta, d, rx);
  }

  /// (1±O(ε))-estimate of |{key : count(key) ≠ 0}|; exact when the count is
  /// at most s₀.  Returns −1 when no level decodes (cannot happen for
  /// max_level ≥ log2(F0/s₀); kept as an explicit failure signal).
  [[nodiscard]] double estimate() const;

  [[nodiscard]] std::uint64_t point() const noexcept { return point_; }
  [[nodiscard]] std::size_t words() const;

 private:
  std::size_t s0_;
  std::uint64_t point_;
  PolyHash level_hash_;
  std::vector<SparseRecovery> levels_;
};

}  // namespace kc::sketch
