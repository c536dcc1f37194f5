// Axis-aligned bounding box; used by workload generators and to compute
// spread ratios (σ = d_max / d_min) for the sliding-window experiments.

#pragma once

#include "geometry/metric.hpp"
#include "geometry/point.hpp"

namespace kc {

class Box {
 public:
  Box() = default;
  Box(Point lo, Point hi);

  /// Empty box of dimension `dim` (extend() grows it).
  [[nodiscard]] static Box empty(int dim);

  void extend(const Point& p);

  [[nodiscard]] bool contains(const Point& p) const;
  [[nodiscard]] const Point& lo() const noexcept { return lo_; }
  [[nodiscard]] double max_side() const;
  [[nodiscard]] bool is_empty() const noexcept { return empty_; }

  /// Diameter of the box under `metric` (distance between corners).
  [[nodiscard]] double diameter(const Metric& metric) const;

 private:
  Point lo_, hi_;
  bool empty_ = true;
};

/// Spread statistics of a point set: the largest and smallest non-zero
/// pairwise distance (brute force — intended for tests and the lower-bound
/// constructions, whose sizes are modest).
struct Spread {
  double d_min = 0.0;
  double d_max = 0.0;
  [[nodiscard]] double ratio() const { return d_min > 0 ? d_max / d_min : 0.0; }
};
[[nodiscard]] Spread compute_spread(const PointSet& pts, const Metric& metric);

}  // namespace kc
