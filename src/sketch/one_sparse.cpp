#include "sketch/one_sparse.hpp"

namespace kc::sketch {

std::optional<OneSparseCell::Recovered> OneSparseCell::recover(
    std::uint64_t r) const noexcept {
  if (count_ <= 0) return std::nullopt;
  const std::uint64_t c = static_cast<std::uint64_t>(count_) % kPrime;
  if (c == 0) return std::nullopt;
  // Candidate embedded key: keysum / count (mod p).
  const std::uint64_t x = mul_mod(keysum_, inv_mod(c));
  if (x == 0) return std::nullopt;
  // Verify against the fingerprint.
  if (fingerprint_ != mul_mod(c, pow_mod(r, x))) return std::nullopt;
  return Recovered{x - 1, count_};  // embed_key(key) = key + 1 for key < p−1
}

}  // namespace kc::sketch
