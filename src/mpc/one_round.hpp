// Algorithm 6: the randomized 1-round MPC coreset (paper §7.1, Theorem 33),
// and the Guha–Li–Zhang-style local-z baseline [29] it improves on.
//
// Assumes the input is distributed uniformly at random over the machines.
// Then with probability ≥ 1 − 1/n² every machine holds at most
// z' = min(6z/m + 3·log2 n, z) outliers (Lemma 32 / Chernoff), so each
// machine can build an (ε, k, z')-mini-ball covering of its local set and
// ship it to the coordinator in a single communication round.  The
// coordinator merges (Lemma 4) and recompresses (Lemma 5).
//
// Without the random distribution a worker cannot know how many of the
// global z outliers it holds, so the safe choice is the full budget z' = z:
// correct under any partition (every subset satisfies
// optk,z(P_i) ≤ optk,z(P)), but every machine pays the additive z in its
// summary and the coordinator receives Θ(m·z) outlier candidates in the
// worst case.  That is the local-z aggregation the paper's §3 credits to
// [29] and improves from linear to logarithmic dependence on z.

#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "mpc/simulator.hpp"

namespace kc::mpc {

struct OneRoundOptions {
  double eps = 0.5;
};

struct OneRoundResult : Coordinated {
  double eps_effective = 0.0;
  std::int64_t z_local = 0;  ///< the per-machine outlier budget z'
  MpcStats stats;
};

/// Runs Algorithm 6 on a pre-partitioned input (parts should come from
/// PartitionKind::Random for the guarantee to hold; the algorithm itself is
/// deterministic given the partition).  `n_total` is |P| (used for the
/// 3·log n term).
[[nodiscard]] OneRoundResult one_round_coreset(
    const std::vector<WeightedSet>& parts, int k, std::int64_t z,
    std::size_t n_total, const Metric& metric, const ExecContext& ctx = {},
    const OneRoundOptions& opt = {});

/// The local-z baseline: Algorithm 6 with z' = z on any partition.
[[nodiscard]] OneRoundResult guha_local_z_coreset(
    const std::vector<WeightedSet>& parts, int k, std::int64_t z,
    const Metric& metric, const ExecContext& ctx = {},
    const OneRoundOptions& opt = {});

}  // namespace kc::mpc
