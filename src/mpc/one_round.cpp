#include "mpc/one_round.hpp"

#include <algorithm>
#include <cmath>

#include "core/coreset.hpp"
#include "core/mbc.hpp"
#include "util/check.hpp"

namespace kc::mpc {

namespace {

// Each machine ships its (ε, k, z')-covering; a missing one is rebuilt (or
// written off) per the injector's policy by re-running the machine's
// deterministic local construction on its durable partition.
OneRoundResult local_budget_coreset(const std::vector<WeightedSet>& parts,
                                    int k, std::int64_t z,
                                    std::int64_t z_local, const Metric& metric,
                                    const ExecContext& ctx,
                                    const OneRoundOptions& opt) {
  KC_EXPECTS(!parts.empty());
  const int m = static_cast<int>(parts.size());
  Simulator sim(m, parts_dim(parts), ctx);
  const std::vector<WeightedSet> shipments =
      fan_in(sim, parts, m, m, [&](int id) -> WeightedSet {
        return mbc_construct(parts[static_cast<std::size_t>(id)], k, z_local,
                             opt.eps, metric)
            .reps;
      });

  OneRoundResult result;
  static_cast<Coordinated&>(result) =
      coordinate(sim, parts[0].size(), shipments, k, z, opt.eps, metric);
  result.z_local = z_local;
  result.eps_effective = compose_eps(opt.eps, opt.eps);
  result.stats = sim.stats();
  return result;
}

}  // namespace

OneRoundResult one_round_coreset(const std::vector<WeightedSet>& parts, int k,
                                 std::int64_t z, std::size_t n_total,
                                 const Metric& metric, const ExecContext& ctx,
                                 const OneRoundOptions& opt) {
  KC_EXPECTS(!parts.empty());
  const auto m = static_cast<double>(parts.size());
  // z' = min(6z/m + 3·log2 n, z)   (Lemma 32).
  const double logn = n_total > 1 ? std::log2(static_cast<double>(n_total)) : 1.0;
  const auto z_local = std::min<std::int64_t>(
      z, static_cast<std::int64_t>(
             std::ceil(6.0 * static_cast<double>(z) / m + 3.0 * logn)));
  return local_budget_coreset(parts, k, z, z_local, metric, ctx, opt);
}

OneRoundResult guha_local_z_coreset(const std::vector<WeightedSet>& parts,
                                    int k, std::int64_t z,
                                    const Metric& metric,
                                    const ExecContext& ctx,
                                    const OneRoundOptions& opt) {
  return local_budget_coreset(parts, k, z, z, metric, ctx, opt);
}

}  // namespace kc::mpc
