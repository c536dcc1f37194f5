// 1-sparse detection cell for strict-turnstile streams.
//
// The classic (count, key-sum, fingerprint) triple: after a stream of
// updates (a, ξ) with non-negative final frequencies, the cell can decide
// whether the current frequency vector restricted to it is exactly
// 1-sparse, and if so recover (key, count) exactly.  The fingerprint
// Σ c_a · r^{embed(a)} (random r, Schwartz–Zippel) makes false positives
// vanishingly unlikely; buckets of the s-sparse recovery structure are made
// of these cells.
//
// The cell stores exactly its three words.  The evaluation point r is not
// part of it: every cell of a sketch (and, in Algorithm 5, every sketch of
// one grid level) shares r, so the owner keeps r, computes x = embed(a),
// ξ mod p and r^x once per update, and hands them to add().

#pragma once

#include <cstdint>
#include <optional>

#include "sketch/field.hpp"

namespace kc::sketch {

class OneSparseCell {
 public:
  /// Adds ξ = `delta` copies of the key with x = embed_key(key),
  /// d = signed_mod(delta) and rx = r^x mod p.
  void add(std::uint64_t x, std::int64_t delta, std::uint64_t d,
           std::uint64_t rx) noexcept {
    count_ += delta;
    keysum_ = add_mod(keysum_, mul_mod(d, x));
    fingerprint_ = add_mod(fingerprint_, mul_mod(d, rx));
  }

  [[nodiscard]] bool empty() const noexcept {
    return count_ == 0 && keysum_ == 0 && fingerprint_ == 0;
  }

  struct Recovered {
    std::uint64_t key = 0;
    std::int64_t count = 0;
  };

  /// If the cell currently holds exactly one distinct key with positive
  /// count, returns it; otherwise nullopt.  `r` is the evaluation point the
  /// fingerprint was built with.  Sound for strict-turnstile vectors up to
  /// fingerprint collisions (probability < 2n/p per test).
  [[nodiscard]] std::optional<Recovered> recover(
      std::uint64_t r) const noexcept;

  /// Words of storage (count + keysum + fingerprint).
  [[nodiscard]] static constexpr std::size_t words() noexcept { return 3; }

 private:
  std::int64_t count_ = 0;         // Σ ξ
  std::uint64_t keysum_ = 0;       // Σ ξ·embed(key)  (mod p)
  std::uint64_t fingerprint_ = 0;  // Σ ξ·r^{embed(key)}  (mod p)
};

static_assert(sizeof(OneSparseCell) ==
              OneSparseCell::words() * sizeof(std::uint64_t));

}  // namespace kc::sketch
