// Deterministic s-sparse recovery via power sums (Prony / Reed–Solomon
// syndrome decoding) — the determinisation the paper sketches at the end of
// §1: "we can make the s-sample recovery sketch deterministic by using the
// Vandermonde matrix".
//
// The sketch maintains the 2s syndromes  S_j = Σ_x c_x · X_x^j  (mod p),
// X_x = embed(x), j = 0..2s−1 — exactly the products of the frequency
// vector with a Vandermonde measurement matrix.  If at most s keys have
// non-zero count, the support is recovered *deterministically*:
// Berlekamp–Massey finds the minimal connection polynomial whose roots are
// the X_x^{-1}; root finding enumerates the universe (a Chien search —
// practical for the demo universes this extension targets, as the paper
// itself notes the missing piece is a *deterministic sparsity test*, not
// the recovery); the counts follow from solving the Vandermonde system.
// decode() verifies the recovered set against all 2s syndromes and reports
// failure when the vector was not s-sparse.
//
// Space: 2s words.  Update cost: O(s) field ops.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sketch/field.hpp"

namespace kc::sketch {

class PowerSumSketch {
 public:
  explicit PowerSumSketch(std::size_t capacity);

  void update(std::uint64_t key, std::int64_t delta) noexcept;

  struct Item {
    std::uint64_t key = 0;
    std::int64_t count = 0;
  };

  /// Deterministic decode with a Chien search over keys [0, universe).
  /// Returns nullopt when the stream is not s-sparse (verification failure)
  /// or the linear algebra degenerates (cannot happen for valid strict-
  /// turnstile inputs within capacity).
  [[nodiscard]] std::optional<std::vector<Item>> decode(
      std::uint64_t universe) const;

  /// Decode against an explicit candidate key list (when the caller knows a
  /// superset of the support — avoids the universe scan).
  // kc-lint-allow(exports): PowerSum.CandidateDecodeAvoidsUniverseScan and
  // PowerSum.CandidateDecodeFailsIfSupportMissing.
  [[nodiscard]] std::optional<std::vector<Item>> decode_candidates(
      const std::vector<std::uint64_t>& candidates) const;

  [[nodiscard]] bool empty() const noexcept;
  [[nodiscard]] std::size_t capacity() const noexcept { return s_; }
  [[nodiscard]] std::size_t words() const noexcept { return syndromes_.size(); }

 private:
  std::size_t s_;
  std::vector<std::uint64_t> syndromes_;  // S_0..S_{2s-1}

  [[nodiscard]] std::vector<std::uint64_t> berlekamp_massey() const;
  [[nodiscard]] std::optional<std::vector<Item>> finish(
      std::vector<std::uint64_t> support) const;
};

}  // namespace kc::sketch
