#include "test_support.hpp"

#include <sstream>

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
