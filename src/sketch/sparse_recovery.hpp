// s-sparse recovery sketch for strict-turnstile streams — the stand-in for
// the Barkay–Porat–Shalem s-sample recovery structure [4] (PAPER.md,
// "Documented substitutions"; same black-box guarantee used by the paper's
// Lemma 22).
//
// Structure: kRows = 4 independent hash rows, each with 2s buckets of
// 1-sparse cells; decoding peels singleton buckets (recover → subtract
// everywhere → repeat), exactly as in invertible Bloom lookup tables.
// When the frequency vector has ≤ s non-zero keys, decoding recovers every
// (key, count) pair exactly with probability 1 − δ, δ = 2^-Θ(kRows).
// With more than s keys it either returns a partial sample or reports
// failure — Algorithm 5 only queries the grid level whose non-empty-cell
// count is below s.
//
// Update path: row r's bucket is a degree-6 (7-wise independent)
// polynomial hash of x = embed(key), reduced mod max(2s, 8) buckets.  The
// 7 × 4 coefficients are stored row-interleaved and all rows are evaluated
// in one lockstep Horner loop; the bucket reduction is an exact Barrett
// step (BucketReducer), so row r's bucket is PolyHash(7, seed_r)(key) mod
// the bucket count.
//
// Evaluation point: the cells' fingerprints are evaluated at one point r.
// A sketch built without a point draws its own; Algorithm 5 passes one r
// per grid level, shared by S(G_l) and every level of F(G_l), and calls
// add() with r^x computed once.  Schwartz–Zippel still bounds the false
// positives: a test accepts a wrong candidate only when a fixed non-zero
// polynomial of degree < p in r vanishes at r.  Up to the first false
// positive, peeling subtracts only true (key, count) pairs, so every cell
// state tested before it — and hence every tested polynomial — is a
// function of the stream and the row hashes alone, not of r.  The union
// bound over all tests of all sketches therefore holds unchanged when they
// share r; it never used independence between sketches.
//
// Space: kRows · 2s cells · 3 words + 8 words per row hash + 4 words.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sketch/hashing.hpp"
#include "sketch/one_sparse.hpp"

namespace kc::sketch {

class SparseRecovery {
 public:
  static constexpr std::size_t kRows = 4;
  static constexpr std::size_t kIndependence = 7;  ///< coefficients per row

  /// capacity = s.  The fingerprint point is drawn from `seed`.
  SparseRecovery(std::size_t capacity, std::uint64_t seed);

  /// As above, but fingerprints are evaluated at the caller's point r.
  /// The seed's own point draw is still made, so the row hashes are those
  /// of the one-argument form.
  SparseRecovery(std::size_t capacity, std::uint64_t seed,
                 std::uint64_t point);

  /// Adds `delta` copies of `key`.
  void update(std::uint64_t key, std::int64_t delta) noexcept {
    const std::uint64_t x = embed_key(key);
    add(x, delta, signed_mod(delta), pow_mod(point_, x));
  }

  /// update() with the field work done by the caller: x = embed_key(key),
  /// d = signed_mod(delta), rx = point()^x mod p.
  void add(std::uint64_t x, std::int64_t delta, std::uint64_t d,
           std::uint64_t rx) noexcept {
    const auto idx = cell_indices(x);
    for (const std::size_t i : idx) cells_[i].add(x, delta, d, rx);
  }

  struct Item {
    std::uint64_t key = 0;
    std::int64_t count = 0;
  };
  struct DecodeResult {
    std::vector<Item> items;  ///< recovered (key, exact count) pairs
    bool complete = false;    ///< true iff the residual sketch is empty
  };

  /// Peeling decode.  Non-destructive (works on a copy of the cells).
  [[nodiscard]] DecodeResult decode() const;

  /// The row hash values PolyHash(7, seed_r)(key) at x = embed_key(key).
  // kc-lint-allow(exports): SparseRecovery.LockstepRowHashesMatchPolyHash
  // checks the lockstep rows against PolyHash.
  [[nodiscard]] std::array<std::uint64_t, kRows> row_hashes(
      std::uint64_t x) const noexcept {
    std::array<std::uint64_t, kRows> acc{};
    for (std::size_t j = 0; j < kIndependence; ++j)
      for (std::size_t r = 0; r < kRows; ++r)
        acc[r] = add_mod(mul_mod(acc[r], x), coeffs_[j * kRows + r]);
    return acc;
  }

  [[nodiscard]] std::uint64_t point() const noexcept { return point_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t words() const noexcept {
    return cells_.size() * OneSparseCell::words() + kRows * 8 + 4;
  }

 private:
  std::size_t capacity_;
  std::size_t buckets_;  // per row
  BucketReducer bucket_;
  std::uint64_t point_;
  // Coefficient j (highest degree first) of row r at [j * kRows + r].
  std::array<std::uint64_t, kIndependence * kRows> coeffs_{};
  std::vector<OneSparseCell> cells_;  // kRows × buckets, row-major

  /// The cell of every row that key x hashes to.
  [[nodiscard]] std::array<std::size_t, kRows> cell_indices(
      std::uint64_t x) const noexcept {
    const auto h = row_hashes(x);
    std::array<std::size_t, kRows> idx{};
    for (std::size_t r = 0; r < kRows; ++r)
      idx[r] = r * buckets_ + bucket_(h[r]);
    return idx;
  }
};

}  // namespace kc::sketch
