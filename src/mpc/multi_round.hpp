// Algorithm 7: the deterministic R-round MPC coreset (paper §7.2,
// Theorem 35) — a trade-off between rounds and storage per machine.
//
// With β = ⌈m^{1/R}⌉, the number of active machines shrinks by β each round:
// in round t, active machine M_i computes an (ε,k,z)-mini-ball covering of
// everything it has received and sends it to M_{⌈i/β⌉}.  After R rounds the
// coordinator holds a ((1+ε)^R − 1, k, z)-coreset of P (Lemma 34: errors
// compose via Lemma 5, unions via Lemma 4).

#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "mpc/simulator.hpp"

namespace kc::mpc {

struct MultiRoundOptions {
  double eps = 0.25;
  int rounds = 2;  ///< R ≥ 1
};

struct MultiRoundResult {
  WeightedSet coreset;          ///< final covering held by machine 0
  double eps_effective = 0.0;   ///< (1+ε)^R − 1
  int beta = 0;                 ///< fan-in per round
  MpcStats stats;
};

[[nodiscard]] MultiRoundResult multi_round_coreset(
    const std::vector<WeightedSet>& parts, int k, std::int64_t z,
    const Metric& metric, const ExecContext& ctx = {},
    const MultiRoundOptions& opt = {});

}  // namespace kc::mpc
