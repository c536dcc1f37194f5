#include "test_support.hpp"

#include <sstream>

#include "core/cost.hpp"
#include "core/solver.hpp"

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

}  // namespace kc::testing
