// Value-type point in R^d with a small inline coordinate store.
//
// The library targets metric spaces of constant doubling dimension; all of
// its experiments run in R^d for small d, so Point keeps up to kMaxDim
// coordinates inline (no heap allocation, cheap copies).  Weighted points
// carry positive integer weights as required by the weighted k-center
// problem (paper §1).

#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace kc {

class Point {
 public:
  static constexpr int kMaxDim = 8;
  /// Largest |coordinate| an external input (CSV, Matrix Market, `.kcb`)
  /// may carry.  Within it, every squared L2 distance in d ≤ kMaxDim is at
  /// most 4·8·(1e150)² = 3.2e301, so the distance keys, the 3r and 2r
  /// radius multiples the algorithms form, and their squares all stay
  /// finite; past ~1e153 the L2 key overflows to inf.
  static constexpr double kMaxAbsCoordinate = 1e150;

  Point() noexcept : dim_(0) {}

  explicit Point(int dim, double fill = 0.0) : dim_(dim) {
    KC_EXPECTS(dim >= 1 && dim <= kMaxDim);
    coords_.fill(0.0);
    for (int i = 0; i < dim_; ++i) coords_[static_cast<std::size_t>(i)] = fill;
  }

  Point(std::initializer_list<double> cs) : dim_(static_cast<int>(cs.size())) {
    KC_EXPECTS(dim_ >= 1 && dim_ <= kMaxDim);
    coords_.fill(0.0);
    int i = 0;
    for (double c : cs) coords_[static_cast<std::size_t>(i++)] = c;
  }

  explicit Point(std::span<const double> cs)
      : dim_(static_cast<int>(cs.size())) {
    KC_EXPECTS(dim_ >= 1 && dim_ <= kMaxDim);
    coords_.fill(0.0);
    for (int i = 0; i < dim_; ++i) coords_[static_cast<std::size_t>(i)] = cs[static_cast<std::size_t>(i)];
  }

  [[nodiscard]] int dim() const noexcept { return dim_; }

  [[nodiscard]] double operator[](int i) const noexcept {
    KC_DCHECK(i >= 0 && i < dim_);
    return coords_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] double& operator[](int i) noexcept {
    KC_DCHECK(i >= 0 && i < dim_);
    return coords_[static_cast<std::size_t>(i)];
  }

  [[nodiscard]] std::span<const double> coords() const noexcept {
    return {coords_.data(), static_cast<std::size_t>(dim_)};
  }

  friend bool operator==(const Point& a, const Point& b) noexcept {
    if (a.dim_ != b.dim_) return false;
    for (int i = 0; i < a.dim_; ++i)
      if (a[i] != b[i]) return false;
    return true;
  }
  friend bool operator!=(const Point& a, const Point& b) noexcept {
    return !(a == b);
  }

  /// Component-wise arithmetic (used by workload generators and the
  /// lower-bound constructions when translating cluster templates).
  [[nodiscard]] Point operator+(const Point& o) const;
  [[nodiscard]] Point operator-(const Point& o) const;
  [[nodiscard]] Point operator*(double s) const;

  [[nodiscard]] std::string to_string() const;

 private:
  std::array<double, kMaxDim> coords_{};
  int dim_;
};

/// Point with a positive integer weight.  The weighted k-center problem
/// bounds the total *weight* of outliers by z; coresets are weighted point
/// sets (Definition 1).
struct WeightedPoint {
  Point p;
  std::int64_t w = 1;
};

using PointSet = std::vector<Point>;
using WeightedSet = std::vector<WeightedPoint>;

/// Total weight of a weighted set.
[[nodiscard]] std::int64_t total_weight(const WeightedSet& s) noexcept;

/// Lifts an unweighted set to unit weights.
[[nodiscard]] WeightedSet with_unit_weights(const PointSet& s);

}  // namespace kc
