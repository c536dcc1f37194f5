#include "core/solver.hpp"

#include <utility>
#include <vector>

#include "core/brute_force.hpp"
#include "core/cost.hpp"
#include "geometry/point_buffer.hpp"
#include "util/check.hpp"

namespace kc {

Solution solve_kcenter_outliers(const WeightedSet& pts, int k, std::int64_t z,
                                const Metric& metric,
                                const OracleOptions& oracle) {
  KC_EXPECTS(!pts.empty());
  // One pack of `pts` (the caller's buffer when it mirrors them) feeds the
  // oracle's working set and the final evaluation.
  kernels::PointBuffer local;
  OracleOptions opt = oracle;
  opt.exec.buffer = &kernels::mirror_or_pack(pts, oracle.exec.buffer, local);
  RadiusEstimate est = estimate_radius(pts, k, z, metric, opt);
  // The radius we report is the exact outlier-aware radius of the chosen
  // centers on the *original* weighted set.
  return evaluate(pts, std::move(est.centers), z, metric, opt.exec.buffer);
}

Solution solve_kcenter_outliers_exact(const WeightedSet& pts, int k,
                                      std::int64_t z, const Metric& metric,
                                      std::uint64_t budget) {
  KC_EXPECTS(!pts.empty());
  // C(n, k) within budget → exact discrete-center enumeration.
  std::uint64_t combos = 1;
  bool feasible = true;
  for (int i = 1; i <= k && feasible; ++i) {
    combos = combos * (pts.size() - static_cast<std::size_t>(k) +
                       static_cast<std::size_t>(i)) /
             static_cast<std::uint64_t>(i);
    if (combos > budget) feasible = false;
  }
  if (feasible && static_cast<std::size_t>(k) <= pts.size())
    return brute_force_kcenter(pts, k, z, metric);
  return solve_kcenter_outliers(pts, k, z, metric);
}

Labeling classify(const WeightedSet& pts, const Solution& sol,
                  const Metric& metric) {
  KC_EXPECTS(!sol.centers.empty());
  Labeling out;
  const std::size_t n = pts.size();
  const kernels::PointBuffer buf(pts);
  std::vector<double> keys;
  std::vector<std::uint32_t> assign;
  nearest_center_assign(buf.view(), sol.centers, metric, keys, assign);
  // Tolerance mirrors check_expansion_property: absorb fp rounding so a
  // point exactly on the boundary counts as covered.
  const double limit = sol.radius * (1.0 + 1e-12) + 1e-300;
  out.labels.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (metric.key_to_dist(keys[i]) > limit) {
      out.labels.push_back(-1);
      out.outlier_weight += pts[i].w;
    } else {
      out.labels.push_back(assign[i] == kNoCenter ? -1
                                                  : static_cast<int>(assign[i]));
    }
  }
  return out;
}

}  // namespace kc
