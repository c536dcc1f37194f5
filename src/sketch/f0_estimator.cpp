#include "sketch/f0_estimator.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace kc::sketch {

F0Estimator::F0Estimator(double eps, std::uint64_t seed, int max_level)
    : F0Estimator(eps, seed, max_level, draw_point(seed)) {}

F0Estimator::F0Estimator(double eps, std::uint64_t seed, int max_level,
                         std::uint64_t point)
    : s0_(static_cast<std::size_t>(
          std::max(16.0, std::ceil(16.0 / (eps * eps))))),
      point_(point),
      level_hash_(/*independence=*/7, splitmix64(seed)) {
  KC_EXPECTS(eps > 0.0 && eps <= 1.0);
  KC_EXPECTS(max_level >= 1);
  Rng rng(splitmix64(seed ^ 0x9e3779b97f4a7c15ULL));
  levels_.reserve(static_cast<std::size_t>(max_level) + 1);
  for (int l = 0; l <= max_level; ++l)
    levels_.emplace_back(s0_, rng(), point_);
}

double F0Estimator::estimate() const {
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const auto dec = levels_[l].decode();
    if (dec.complete)
      return static_cast<double>(dec.items.size()) *
             std::pow(2.0, static_cast<double>(l));
  }
  return -1.0;
}

std::size_t F0Estimator::words() const {
  std::size_t total = 8;  // level hash coefficients
  for (const auto& lvl : levels_) total += lvl.words();
  return total;
}

}  // namespace kc::sketch
