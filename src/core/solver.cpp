#include "core/solver.hpp"

#include <vector>

#include "core/brute_force.hpp"
#include "core/charikar.hpp"
#include "core/cost.hpp"
#include "core/gonzalez.hpp"
#include "util/check.hpp"

namespace kc {

Solution solve_kcenter_outliers(const WeightedSet& pts, int k, std::int64_t z,
                                const Metric& metric,
                                const OracleOptions& oracle) {
  KC_EXPECTS(!pts.empty());
  // One pack of `pts` (the oracle's buffer when it mirrors them) feeds the
  // Gonzalez compression, the Charikar ladder (when uncompressed), and the
  // final evaluation.
  kernels::PointBuffer local;
  const kernels::PointBuffer* buffer =
      &kernels::mirror_or_pack(pts, oracle.exec.buffer, local);
  CharikarOptions copt;
  copt.beta = oracle.beta;
  copt.exec = oracle.exec;
  copt.exec.buffer = buffer;

  // The Charikar greedy is O(ladder · k · n²); above the threshold we first
  // compress with a Gonzalez summary (covering radius ≤ γ·opt by the
  // packing bound), which perturbs the optimum by ≤ γ·opt — a constant
  // absorbed into the solver's approximation factor.
  const WeightedSet* work = &pts;
  WeightedSet summary;
  if (pts.size() > oracle.auto_threshold) {
    const int dim = pts.front().p.dim();
    const std::int64_t tau = summary_center_budget(k, z, oracle.gamma, dim);
    if (static_cast<std::int64_t>(pts.size()) > tau) {
      const GonzalezResult g = gonzalez(pts, static_cast<int>(tau), metric,
                                        /*stop_radius=*/0.0, oracle.exec.pool,
                                        buffer);
      summary = gonzalez_summary(pts, g);
      work = &summary;
      copt.exec.buffer = nullptr;  // the buffer mirrors pts, not the summary
    }
  }

  const CharikarResult res = charikar_oracle(*work, k, z, metric, copt);
  PointSet centers = res.centers;
  // The radius we report is the exact outlier-aware radius of the chosen
  // centers on the *original* weighted set.
  return evaluate(pts, std::move(centers), z, metric, buffer);
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

PipelineQuality compare_on_full(const WeightedSet& full,
                                const WeightedSet& coreset, int k,
                                std::int64_t z, const Metric& metric,
                                const OracleOptions& oracle) {
  PipelineQuality q;
  const Solution via = solve_kcenter_outliers(coreset, k, z, metric, oracle);
  q.radius_via_coreset =
      radius_with_outliers(full, via.centers, z, metric);
  const Solution direct = solve_kcenter_outliers(full, k, z, metric, oracle);
  q.radius_direct = direct.radius;
  q.ratio = q.radius_direct > 0 ? q.radius_via_coreset / q.radius_direct : 1.0;
  return q;
}

}  // namespace kc
