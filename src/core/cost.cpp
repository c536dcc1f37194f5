#include "core/cost.hpp"

#include <algorithm>
#include <limits>

#include "geometry/kernels.hpp"
#include "util/check.hpp"

namespace kc {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Rows per sweep block of `OutlierTail::add`: a block's keys stay in cache
// between the center passes and the tail filter.
constexpr std::size_t kEvalBlock = 4096;

// The nearest-center sweep: keys[i] = min over centers, in ascending
// order, of the key from row i of `view`.
void nearest_center_keys(const kernels::BufferView& view,
                         const PointSet& centers, const Metric& metric,
                         double* keys) {
  KC_EXPECTS(!centers.empty());
  std::fill(keys, keys + view.size(), kInf);
  kernels::with_norm(metric.norm(), [&]<Norm N>() {
    for (const auto& c : centers)
      kernels::min_keys<N>(view, c.coords().data(), keys);
  });
}

constexpr auto key_greater = [](const auto& a, const auto& b) {
  return a.first > b.first;
};

}  // namespace

void nearest_center_assign(const kernels::BufferView& view,
                           const PointSet& centers, const Metric& metric,
                           std::vector<double>& keys,
                           std::vector<std::uint32_t>& assign) {
  KC_EXPECTS(!centers.empty());
  keys.assign(view.size(), kInf);
  assign.assign(view.size(), kNoCenter);
  kernels::with_norm(metric.norm(), [&]<Norm N>() {
    for (std::size_t c = 0; c < centers.size(); ++c)
      kernels::relax_min_keys<N>(view, centers[c].coords().data(),
                                 static_cast<std::uint32_t>(c), keys.data(),
                                 assign.data());
  });
}

OutlierTail::OutlierTail(std::int64_t z, const Metric& metric)
    : z_(z),
      keep_(static_cast<std::uint64_t>(z) + 1),
      metric_(metric),
      floor_(-kInf) {
  KC_EXPECTS(z >= 0);
}

void OutlierTail::add(const kernels::BufferView& view, const PointSet& centers,
                      std::span<const std::int64_t> w) {
  KC_EXPECTS(w.empty() || w.size() == view.size());
  const std::size_t n = view.size();
  keys_.resize(std::min(n, kEvalBlock));
  for (std::size_t lo = 0; lo < n; lo += kEvalBlock) {
    const std::size_t len = std::min(kEvalBlock, n - lo);
    nearest_center_keys(view.subview(lo, len), centers, metric_,
                        keys_.data());
    for (std::size_t i = 0; i < len; ++i) {
      if (!(keys_[i] > floor_)) continue;
      cand_.emplace_back(keys_[i], w.empty() ? 1 : w[lo + i]);
      if (cand_.size() / 2 >= keep_) compact();
    }
  }
}

// Keeps the z+1 largest keys and raises the floor to the smallest of them.
// A dropped key is ≤ the floor, and the kept ones weigh > z at or above
// it, so the answer is ≥ the floor and every key above it is still here.
void OutlierTail::compact() {
  const auto kth = cand_.begin() + static_cast<std::ptrdiff_t>(keep_ - 1);
  std::nth_element(cand_.begin(), kth, cand_.end(), key_greater);
  floor_ = kth->first;
  cand_.resize(static_cast<std::size_t>(keep_));
}

double OutlierTail::radius() {
  // Until the first compaction the candidates are all the points added.
  std::int64_t total = 0;
  for (const auto& c : cand_) total += c.second;
  if (total <= z_) return 0.0;  // everything may be an outlier
  // Walk from the farthest candidate: once the accumulated weight would
  // exceed z, the current point must be covered, so its key is the answer.
  std::sort(cand_.begin(), cand_.end(), key_greater);
  std::int64_t acc = 0;
  for (const auto& [key, w] : cand_) {
    if (acc + w > z_) return metric_.key_to_dist(key);
    acc += w;
  }
  return 0.0;
}

std::vector<double> nearest_center_dist(const WeightedSet& pts,
                                        const PointSet& centers,
                                        const Metric& metric,
                                        const kernels::PointBuffer* buf) {
  std::vector<double> keys(pts.size());
  kernels::PointBuffer local;
  nearest_center_keys(kernels::mirror_or_pack(pts, buf, local).view(),
                      centers, metric, keys.data());
  for (auto& k : keys) k = metric.key_to_dist(k);
  return keys;
}

double radius_with_outliers(const WeightedSet& pts, const PointSet& centers,
                            std::int64_t z, const Metric& metric,
                            const kernels::PointBuffer* buf) {
  if (pts.empty()) return 0.0;
  std::vector<std::int64_t> w;
  w.reserve(pts.size());
  for (const auto& wp : pts) {
    KC_EXPECTS(wp.w > 0);
    w.push_back(wp.w);
  }
  OutlierTail tail(z, metric);
  kernels::PointBuffer local;
  tail.add(kernels::mirror_or_pack(pts, buf, local).view(), centers, w);
  return tail.radius();
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
