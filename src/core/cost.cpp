#include "core/cost.hpp"

#include <algorithm>
#include <limits>

#include "geometry/kernels.hpp"
#include "util/check.hpp"

namespace kc {

namespace {

// Batched nearest-center keys over a prebuilt SoA buffer: one min-relax
// sweep per center, centers in ascending order — the same per-point
// minimisation sequence as the scalar loop, so bit-identical keys.
template <Norm N>
std::vector<double> nearest_center_keys(const kernels::PointBuffer& buf,
                                        const PointSet& centers) {
  const std::size_t n = buf.size();
  std::vector<double> keys(n, std::numeric_limits<double>::infinity());
  std::vector<double> scratch(n);
  for (const auto& c : centers)
    kernels::min_keys<N>(buf, c.coords().data(), keys.data(), scratch.data());
  return keys;
}

}  // namespace

std::vector<double> nearest_center_dist(const WeightedSet& pts,
                                        const PointSet& centers,
                                        const Metric& metric,
                                        const kernels::PointBuffer* buf) {
  KC_EXPECTS(!centers.empty());
  if (buf != nullptr && buf->size() == pts.size() && !pts.empty()) {
    std::vector<double> keys = kernels::with_norm(
        metric.norm(),
        [&]<Norm N>() { return nearest_center_keys<N>(*buf, centers); });
    for (auto& k : keys) k = metric.key_to_dist(k);
    return keys;
  }
  std::vector<double> out;
  out.reserve(pts.size());
  for (const auto& wp : pts) {
    double best = std::numeric_limits<double>::infinity();
    for (const auto& c : centers) {
      const double key = metric.dist_key(wp.p, c);
      if (key < best) best = key;
    }
    out.push_back(metric.key_to_dist(best));
  }
  return out;
}

double radius_with_outliers(const WeightedSet& pts, const PointSet& centers,
                            std::int64_t z, const Metric& metric,
                            const kernels::PointBuffer* buf) {
  if (pts.empty()) return 0.0;
  const std::vector<double> dist =
      nearest_center_dist(pts, centers, metric, buf);

  // Pair distances with weights, sort descending by distance, and walk from
  // the farthest point: once the accumulated weight would exceed z, the
  // current point must be covered, so its distance is the required radius.
  std::vector<std::pair<double, std::int64_t>> dw;
  dw.reserve(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    KC_EXPECTS(pts[i].w > 0);
    dw.emplace_back(dist[i], pts[i].w);
  }
  std::sort(dw.begin(), dw.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::int64_t acc = 0;
  for (const auto& [d, w] : dw) {
    if (acc + w > z) return d;
    acc += w;
  }
  return 0.0;  // total weight ≤ z: everything may be an outlier
}

std::int64_t uncovered_weight(const WeightedSet& pts, const PointSet& centers,
                              double r, const Metric& metric,
                              const kernels::PointBuffer* buf) {
  const std::vector<double> dist =
      nearest_center_dist(pts, centers, metric, buf);
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < pts.size(); ++i)
    if (dist[i] > r) acc += pts[i].w;
  return acc;
}

Solution evaluate(const WeightedSet& pts, PointSet centers, std::int64_t z,
                  const Metric& metric, const kernels::PointBuffer* buf) {
  Solution sol;
  sol.radius = radius_with_outliers(pts, centers, z, metric, buf);
  sol.centers = std::move(centers);
  return sol;
}

}  // namespace kc
