#include "mpc/ceccarello.hpp"

#include <cmath>

#include "core/gonzalez.hpp"
#include "util/check.hpp"

namespace kc::mpc {

CeccarelloResult ceccarello_coreset(const std::vector<WeightedSet>& parts,
                                    int k, std::int64_t z,
                                    const Metric& metric,
                                    const ExecContext& ctx,
                                    const CeccarelloOptions& opt) {
  KC_EXPECTS(!parts.empty());
  const int m = static_cast<int>(parts.size());
  const int dim = parts_dim(parts);

  // τ = (k+z)·⌈4/ε⌉^d + 1: the multiplicative-z per-machine budget.
  const auto per_center = static_cast<std::int64_t>(
      std::pow(std::ceil(4.0 / opt.eps), dim));
  const std::int64_t tau = (static_cast<std::int64_t>(k) + z) * per_center + 1;

  // Each machine ships a Gonzalez summary of its partition; a missing one
  // is rebuilt (or written off) per the injector's policy by re-running
  // the deterministic summary.
  Simulator sim(m, dim, ctx);
  const std::vector<WeightedSet> shipments =
      fan_in(sim, parts, m, m, [&](int id) -> WeightedSet {
        const WeightedSet& mine = parts[static_cast<std::size_t>(id)];
        if (mine.empty()) return {};
        const GonzalezResult g = gonzalez(
            mine,
            static_cast<int>(std::min<std::int64_t>(
                tau, static_cast<std::int64_t>(mine.size()))),
            metric);
        return gonzalez_summary(mine, g);
      });

  CeccarelloResult result;
  static_cast<Coordinated&>(result) =
      coordinate(sim, parts[0].size(), shipments, k, z, opt.eps, metric);
  result.tau = tau;
  result.stats = sim.stats();
  return result;
}

}  // namespace kc::mpc
