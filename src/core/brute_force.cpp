#include "core/brute_force.hpp"

#include <limits>
#include <vector>

#include "core/cost.hpp"
#include "util/check.hpp"

namespace kc {

namespace {

// Number of k-subsets of n elements, saturating at a cap.
std::uint64_t binom_capped(std::size_t n, int k, std::uint64_t cap) {
  std::uint64_t r = 1;
  for (int i = 1; i <= k; ++i) {
    r = r * (n - static_cast<std::size_t>(k) + static_cast<std::size_t>(i)) /
        static_cast<std::uint64_t>(i);
    if (r > cap) return cap + 1;
  }
  return r;
}

}  // namespace

Solution brute_force_kcenter(const WeightedSet& pts, int k, std::int64_t z,
                             const Metric& metric) {
  KC_EXPECTS(k >= 1);
  KC_EXPECTS(!pts.empty());
  const std::size_t n = pts.size();
  const int kk = static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(k), n));
  KC_EXPECTS(binom_capped(n, kk, 2'000'000) <= 2'000'000);

  std::vector<std::size_t> idx(static_cast<std::size_t>(kk));
  for (int i = 0; i < kk; ++i) idx[static_cast<std::size_t>(i)] = static_cast<std::size_t>(i);

  Solution best;
  best.radius = std::numeric_limits<double>::infinity();
  const kernels::PointBuffer buf(pts);  // one pack for every subset

  auto eval_current = [&] {
    PointSet centers;
    centers.reserve(idx.size());
    for (auto i : idx) centers.push_back(pts[i].p);
    const double r = radius_with_outliers(pts, centers, z, metric, &buf);
    if (r < best.radius) {
      best.radius = r;
      best.centers = std::move(centers);
    }
  };

  // Iterate over all kk-combinations of {0..n-1} in lexicographic order.
  while (true) {
    eval_current();
    int i = kk - 1;
    while (i >= 0 &&
           idx[static_cast<std::size_t>(i)] ==
               n - static_cast<std::size_t>(kk) + static_cast<std::size_t>(i))
      --i;
    if (i < 0) break;
    ++idx[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < kk; ++j)
      idx[static_cast<std::size_t>(j)] = idx[static_cast<std::size_t>(j - 1)] + 1;
  }
  return best;
}

double brute_force_radius(const WeightedSet& pts, int k, std::int64_t z,
                          const Metric& metric) {
  return brute_force_kcenter(pts, k, z, metric).radius;
}

}  // namespace kc
