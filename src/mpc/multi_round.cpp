#include "mpc/multi_round.hpp"

#include <cmath>
#include <utility>

#include "core/coreset.hpp"
#include "core/mbc.hpp"
#include "util/check.hpp"

namespace kc::mpc {

MultiRoundResult multi_round_coreset(const std::vector<WeightedSet>& parts,
                                     int k, std::int64_t z,
                                     const Metric& metric,
                                     const ExecContext& ctx,
                                     const MultiRoundOptions& opt) {
  KC_EXPECTS(!parts.empty());
  KC_EXPECTS(opt.rounds >= 1);
  const int m = static_cast<int>(parts.size());

  // β = ⌈m^{1/R}⌉; after R rounds a single machine remains.
  const int beta = std::max(
      2, static_cast<int>(std::ceil(
             std::pow(static_cast<double>(m), 1.0 / opt.rounds))));

  Simulator sim(m, parts_dim(parts), ctx);
  // Holdings are the durable round-boundary checkpoints of the fault model:
  // a recovery adopter may rebuild any machine's stage output from them.
  // Stage 0 holds the input itself; later stages own what they received.
  std::vector<WeightedSet> received;

  int active = m;
  for (int t = 0; t < opt.rounds; ++t) {
    const std::vector<WeightedSet>& holdings = t == 0 ? parts : received;
    // Active machine M_i ships a covering of its holding to M_{i/β}.
    const std::vector<WeightedSet> arrived =
        fan_in(sim, holdings, active, beta, [&](int id) -> WeightedSet {
          return mbc_construct(holdings[static_cast<std::size_t>(id)], k, z,
                               opt.eps, metric)
              .reps;
        });

    // New holdings = everything received this stage, in sender order.
    const int next_active = (active + beta - 1) / beta;
    std::vector<WeightedSet> next(static_cast<std::size_t>(m));
    for (int s = 0; s < active; ++s) {
      auto& h = next[static_cast<std::size_t>(s / beta)];
      const auto& got = arrived[static_cast<std::size_t>(s)];
      h.insert(h.end(), got.begin(), got.end());
    }
    for (int id = 0; id < next_active; ++id)
      sim.record_storage(
          id, sim.point_words(next[static_cast<std::size_t>(id)].size()));
    received = std::move(next);
    active = next_active;
  }
  KC_ENSURES(active == 1);

  MultiRoundResult result;
  result.coreset = std::move(received[0]);
  result.eps_effective = compose_eps_rounds(opt.eps, opt.rounds);
  result.beta = beta;
  result.stats = sim.stats();
  return result;
}

}  // namespace kc::mpc
