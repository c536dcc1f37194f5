// Shared problem types for the k-center problem with z outliers.

#pragma once

#include <vector>

#include "geometry/metric.hpp"
#include "geometry/point.hpp"

namespace kc {

/// A k-center solution: k centers plus the common radius.  `radius` is the
/// radius needed to cover all but (weight ≤ z) points of the instance the
/// solution was evaluated on.
struct Solution {
  PointSet centers;
  double radius = 0.0;
};

}  // namespace kc
