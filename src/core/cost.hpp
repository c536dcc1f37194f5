// Cost evaluation for k-center with outliers (Definition 1).
//
// The objective of centers C on P is the smallest r such that the points
// farther than r from C weigh at most z.  cost.cpp holds the only code that
// computes it, in memory, per chunk of a source (dataset/source.hpp) and
// for coverage: one nearest-center sweep (a min-key kernel pass per center,
// centers ascending, so every caller gets the same keys) and one selector,
// `OutlierTail`.  Every weight is ≥ 1, so the answer lies among the z+1
// largest keys; the selector keeps only those, walks their weights and
// converts one key to a distance.  `key_to_dist` is monotone and the
// answer is a value, so ties cannot change it.

#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace kc {

/// `assign` entry of a point whose every center key is +∞.
inline constexpr std::uint32_t kNoCenter = 0xffffffffu;

/// The nearest-center sweep with assignment: sets keys[i] to the smallest
/// key from row i of `view` to `centers` and assign[i] to the first center
/// attaining it (or kNoCenter); both are resized to view.size().
void nearest_center_assign(const kernels::BufferView& view,
                           const PointSet& centers, const Metric& metric,
                           std::vector<double>& keys,
                           std::vector<std::uint32_t>& assign);

/// Selector of the weighted (z+1)-tail of nearest-center keys: feed it
/// every point once, in any batching, then read the exact objective.  Its
/// candidate buffer grows with the points seen (never with z) and is
/// compacted with `std::nth_element` to the z+1 largest keys.
class OutlierTail {
 public:
  OutlierTail(std::int64_t z, const Metric& metric);

  /// Adds every row of `view` keyed by its nearest center, with weight
  /// w[i] ≥ 1 (unit weights when `w` is empty).
  void add(const kernels::BufferView& view, const PointSet& centers,
           std::span<const std::int64_t> w = {});

  /// Smallest r such that the points added farther than r weigh at most
  /// z; 0 when their total weight is ≤ z.
  [[nodiscard]] double radius();

 private:
  void compact();

  std::int64_t z_;
  std::uint64_t keep_;  ///< z + 1
  Metric metric_;
  double floor_;        ///< keys ≤ floor_ cannot change the answer
  std::vector<std::pair<double, std::int64_t>> cand_;
  std::vector<double> keys_;  ///< one sweep block
};

/// Distance from each point of `pts` to its nearest center.
///
/// `buf` (optional) is a prebuilt SoA buffer of `pts` in the same order
/// (e.g. the workload's canonical buffer); when null or stale (size
/// mismatch) `pts` is packed into one here.
// kc-lint-allow(exports): Cost.NearestCenterDist and
// CostReference.SweepAndClassifyMatchAosReference pin the per-point sweep.
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
