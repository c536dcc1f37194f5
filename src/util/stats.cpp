#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace kc {

void Summary::add(double x) {
  values_.push_back(x);
  sorted_valid_ = false;
}

void Summary::ensure_sorted() const {
  if (!sorted_valid_) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Summary::min() const {
  KC_EXPECTS(!values_.empty());
  ensure_sorted();
  return sorted_.front();
}

double Summary::max() const {
  KC_EXPECTS(!values_.empty());
  ensure_sorted();
  return sorted_.back();
}

double Summary::percentile(double q) const {
  KC_EXPECTS(!values_.empty());
  KC_EXPECTS(q >= 0.0 && q <= 1.0);
  ensure_sorted();
  if (sorted_.size() == 1) return sorted_[0];
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

double loglog_slope(const std::vector<double>& x, const std::vector<double>& y) {
  KC_EXPECTS(x.size() == y.size());
  KC_EXPECTS(x.size() >= 2);
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const auto n = static_cast<double>(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    KC_EXPECTS(x[i] > 0 && y[i] > 0);
    const double lx = std::log(x[i]);
    const double ly = std::log(y[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  const double denom = n * sxx - sx * sx;
  // kc-lint-allow(numerics): exact degenerate-fit sentinel — denom is
  // identically 0.0 (not merely tiny) only when every x coincides.
  KC_EXPECTS(denom != 0.0);
  return (n * sxy - sx * sy) / denom;
}

}  // namespace kc
