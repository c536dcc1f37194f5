#include "sketch/hashing.hpp"

#include "util/check.hpp"

namespace kc::sketch {

PolyHash::PolyHash(int independence, std::uint64_t seed) {
  KC_EXPECTS(independence >= 1);
  Rng rng(seed);
  coeffs_.resize(static_cast<std::size_t>(independence));
  for (auto& c : coeffs_) c = rng() % kPrime;
  // The leading coefficient of a degree-(t−1) polynomial should be nonzero
  // so the family has full degree (harmless either way for independence).
  if (coeffs_.size() > 1 && coeffs_.front() == 0) coeffs_.front() = 1;
}

std::uint64_t PolyHash::eval(std::uint64_t x) const noexcept {
  std::uint64_t acc = 0;
  for (const std::uint64_t c : coeffs_) {
    acc = mul_mod(acc, x);
    acc = add_mod(acc, c);
  }
  return acc;
}

int PolyHash::level_at(std::uint64_t x, int max_level) const noexcept {
  const std::uint64_t h = eval(x);
  // h/p < 2^{-ℓ}  ⇔  h < p / 2^ℓ.
  int lvl = 0;
  std::uint64_t threshold = kPrime >> 1;
  while (lvl < max_level && h < threshold) {
    ++lvl;
    threshold >>= 1;
  }
  return lvl;
}

}  // namespace kc::sketch
