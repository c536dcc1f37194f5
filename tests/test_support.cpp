#include "test_support.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/cost.hpp"
#include "core/solver.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace kc::testing {

PlantedInstance tiny_planted(int k, std::int64_t z, int dim,
                             std::uint64_t seed) {
  PlantedConfig cfg;
  cfg.k = k;
  cfg.z = z;
  cfg.dim = dim;
  cfg.seed = seed;
  cfg.n = static_cast<std::size_t>(k) * (static_cast<std::size_t>(z) + 6) +
          static_cast<std::size_t>(z) + 20;
  return make_planted(cfg);
}

PipelineQuality compare_on_full(const WeightedSet& full,
                                const WeightedSet& coreset, int k,
                                std::int64_t z, const Metric& metric) {
  PipelineQuality q;
  const Solution via = solve_kcenter_outliers(coreset, k, z, metric);
  q.radius_via_coreset = radius_with_outliers(full, via.centers, z, metric);
  const Solution direct = solve_kcenter_outliers(full, k, z, metric);
  q.radius_direct = direct.radius;
  q.ratio = q.radius_direct > 0 ? q.radius_via_coreset / q.radius_direct : 1.0;
  return q;
}

std::string SweepParam::name() const {
  std::ostringstream out;
  out << "k" << k << "_z" << z << "_eps";
  // gtest parameter names must be alphanumeric.
  out << static_cast<int>(eps * 100) << "_d" << dim << "_s" << seed;
  return out.str();
}

std::vector<SweepParam> default_sweep() {
  std::vector<SweepParam> grid;
  for (int k : {1, 3, 5}) {
    for (std::int64_t z : {0LL, 4LL, 16LL}) {
      for (double eps : {0.25, 0.5, 1.0}) {
        for (int dim : {1, 2}) {
          grid.push_back(SweepParam{k, z, eps, dim, 7});
        }
      }
    }
  }
  return grid;
}

const char* policy_name(mpc::RecoveryPolicy policy) {
  switch (policy) {
    case mpc::RecoveryPolicy::Retry:
      return "retry";
    case mpc::RecoveryPolicy::Reassign:
      return "reassign";
    case mpc::RecoveryPolicy::Degrade:
      return "degrade";
  }
  return "?";
}

WeightedSet make_uniform(std::size_t n, int dim, double side,
                         std::uint64_t seed) {
  KC_EXPECTS(std::isfinite(side) && "non-finite extent");
  Rng rng(seed);
  WeightedSet out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Point p(dim);
    for (int d = 0; d < dim; ++d) p[d] = rng.uniform_real(0.0, side);
    out.push_back({p, 1});
  }
  return out;
}

PointSet strip_weights(const WeightedSet& s) {
  PointSet out;
  out.reserve(s.size());
  for (const auto& wp : s) out.push_back(wp.p);
  return out;
}

std::vector<std::size_t> adversarial_order(
    const std::vector<Point>& pts, const std::vector<std::size_t>& outliers) {
  std::vector<bool> is_outlier(pts.size(), false);
  for (auto i : outliers) is_outlier[i] = true;
  std::vector<std::size_t> order(outliers.begin(), outliers.end());
  std::vector<std::size_t> rest;
  for (std::size_t i = 0; i < pts.size(); ++i)
    if (!is_outlier[i]) rest.push_back(i);
  std::sort(rest.begin(), rest.end(), [&](std::size_t a, std::size_t b) {
    return pts[a][0] < pts[b][0];
  });
  order.insert(order.end(), rest.begin(), rest.end());
  return order;
}

PlantedInstance AdversarialScenario::make(std::size_t n, int k,
                                          std::int64_t z, int dim, Norm norm,
                                          std::uint64_t seed) const {
  PlantedConfig cfg;
  cfg.n = n;
  cfg.k = k;
  cfg.z = z;
  cfg.dim = dim;
  cfg.norm = norm;
  cfg.seed = seed;
  return plant(cfg);
}

namespace {

/// Power-law cluster sizes: z+1 mandatory points each, plus a share
/// ∝ (c+1)^−2 of the free mass; the rounding remainder goes to the head so
/// the tail clusters stay at their mandatory minimum.
PlantedInstance plant_heavy_tailed(PlantedConfig cfg) {
  const auto zu = static_cast<std::size_t>(cfg.z);
  const auto k = static_cast<std::size_t>(cfg.k);
  KC_EXPECTS(cfg.n >= zu + k * (zu + 1));
  const std::size_t free_mass = cfg.n - zu - k * (zu + 1);
  std::vector<double> shares(k);
  double sum = 0.0;
  for (std::size_t c = 0; c < k; ++c) {
    shares[c] = 1.0 / ((static_cast<double>(c) + 1.0) *
                       (static_cast<double>(c) + 1.0));
    sum += shares[c];
  }
  cfg.cluster_sizes.assign(k, zu + 1);
  std::size_t given = 0;
  for (std::size_t c = 0; c < k; ++c) {
    const auto extra = static_cast<std::size_t>(
        std::floor(static_cast<double>(free_mass) * shares[c] / sum));
    cfg.cluster_sizes[c] += extra;
    given += extra;
  }
  cfg.cluster_sizes[0] += free_mass - given;
  return make_planted(cfg);
}

}  // namespace

const std::vector<AdversarialScenario>& adversarial_scenarios() {
  static const std::vector<AdversarialScenario> scenarios = {
      {"outlier-burst",
       [](PlantedConfig cfg) {
         cfg.outliers = OutlierPattern::Burst;
         return make_planted(cfg);
       }},
      {"duplicate-flood",
       [](PlantedConfig cfg) {
         cfg.duplicates = 8;
         return make_planted(cfg);
       }},
      {"heavy-tailed", &plant_heavy_tailed},
      {"drifting-centers",
       [](PlantedConfig cfg) { return make_drifting(cfg); }},
  };
  return scenarios;
}

}  // namespace kc::testing
