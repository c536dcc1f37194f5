// Baseline: Ceccarello–Pietracaprina–Pucci 1-round coreset [11]
// (the "MPC 1-round" rows of Table 1 the paper improves upon).
//
// Faithful-in-spirit reconstruction (PAPER.md, "Documented substitutions"):
// each machine summarises its local set by running Gonzalez until
// τ = (k+z)·⌈4/ε⌉^d + 1 centers.  By the packing bound applied with (k+z)
// centers and 0 outliers, the covering radius then satisfies
// δ ≤ ε·opt_{k+z,0}(P_i) ≤ ε·optk,z(P), so the weighted summary is an
// (ε,k,z)-mini-ball covering of P_i regardless of how outliers are
// distributed — at the cost of the *multiplicative* z·(1/ε)^d term in the
// summary size that the paper's 2-round algorithm replaces with an additive
// z and a log(z+1) table.  The coordinator merges the summaries; we also
// recompress for an apples-to-apples final coreset size.

#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "mpc/simulator.hpp"

namespace kc::mpc {

struct CeccarelloOptions {
  double eps = 0.5;
};

struct CeccarelloResult : Coordinated {
  std::int64_t tau = 0;  ///< per-machine center budget (k+z)⌈4/ε⌉^d + 1
  MpcStats stats;
};

[[nodiscard]] CeccarelloResult ceccarello_coreset(
    const std::vector<WeightedSet>& parts, int k, std::int64_t z,
    const Metric& metric, const ExecContext& ctx = {},
    const CeccarelloOptions& opt = {});

}  // namespace kc::mpc
