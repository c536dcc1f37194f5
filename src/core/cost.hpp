// Cost evaluation for k-center with outliers.
//
// The objective optk,z(P) is the smallest r such that k balls of radius r
// cover all of P except points of total weight ≤ z.  Given a fixed center
// set C, `radius_with_outliers` computes the exact optimal radius for C:
// the smallest r such that the weight of points farther than r from C is
// at most z.

#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace kc {

/// Distance from each point of `pts` to its nearest center.
///
/// `buf` (optional) is a prebuilt SoA buffer of `pts` in the same order
/// (e.g. the workload's canonical buffer): the scan then runs the
/// batched min-relax kernel per center instead of the AoS scalar scan.
/// Per-point minimisation visits centers in the same ascending order either
/// way, so the result is bit-identical.  Ignored when null or stale (size
/// mismatch).
[[nodiscard]] std::vector<double> nearest_center_dist(
    const WeightedSet& pts, const PointSet& centers, const Metric& metric,
    const kernels::PointBuffer* buf = nullptr);

/// Smallest radius r such that the total weight of points with
/// dist(p, centers) > r is at most z.  Returns 0 when the total weight of
/// all points is ≤ z (everything may be an outlier) or when every point
/// coincides with a center.  `buf`: see `nearest_center_dist`.
[[nodiscard]] double radius_with_outliers(
    const WeightedSet& pts, const PointSet& centers, std::int64_t z,
    const Metric& metric, const kernels::PointBuffer* buf = nullptr);

/// Total weight of points strictly farther than r from every center.
/// `buf`: see `nearest_center_dist`.
[[nodiscard]] std::int64_t uncovered_weight(
    const WeightedSet& pts, const PointSet& centers, double r,
    const Metric& metric, const kernels::PointBuffer* buf = nullptr);

/// Evaluates `sol.centers` on `pts` and returns the solution with its exact
/// radius on that instance.  `buf`: see `nearest_center_dist`.
[[nodiscard]] Solution evaluate(const WeightedSet& pts, PointSet centers,
                                std::int64_t z, const Metric& metric,
                                const kernels::PointBuffer* buf = nullptr);

}  // namespace kc
