#include "mpc/guha.hpp"

#include "core/coreset.hpp"
#include "core/mbc.hpp"
#include "util/check.hpp"

namespace kc::mpc {

GuhaResult guha_local_z_coreset(const std::vector<WeightedSet>& parts, int k,
                                std::int64_t z, const Metric& metric,
                                const ExecContext& ctx,
                                const GuhaOptions& opt) {
  KC_EXPECTS(!parts.empty());
  const int m = static_cast<int>(parts.size());

  // Full local budget z: correct under any distribution (every subset
  // satisfies optk,z(P_i) ≤ optk,z(P)), but pays +z per machine.  A
  // missing shipment is rebuilt (or written off) per the injector's policy
  // by re-running the deterministic local construction.
  Simulator sim(m, parts_dim(parts), ctx);
  const std::vector<WeightedSet> shipments =
      fan_in(sim, parts, m, m, [&](int id) -> WeightedSet {
        return mbc_construct(parts[static_cast<std::size_t>(id)], k, z,
                             opt.eps, metric, opt.oracle)
            .reps;
      });

  GuhaResult result;
  for (const auto& shipment : shipments)
    result.local_coreset_sizes.push_back(shipment.size());
  result.merged = merge_coresets(shipments);
  const MiniBallCovering final_mbc =
      recompress(result.merged, k, z, opt.eps, metric, opt.oracle);
  sim.record_storage(0, sim.point_words(parts[0].size() + result.merged.size() +
                                        final_mbc.reps.size()));
  result.coreset = final_mbc.reps;
  result.stats = sim.stats();
  return result;
}

}  // namespace kc::mpc
