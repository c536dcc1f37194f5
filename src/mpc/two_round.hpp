// Algorithm 2: the deterministic 2-round MPC coreset (paper §3, Theorem 10).
//
// Round 1.  Each machine M_i computes, for j = 0..⌈log2(z+1)⌉, the oracle
//   radius V_i[j] for the k-center problem with 2^j − 1 outliers on its
//   local set P_i, and broadcasts the vector V_i to all machines.  The whole
//   table is one `estimate_radius_ladder` call: with the Summary oracle the
//   budgets τ_j grow with the guess, and the Gonzalez traversal is
//   prefix-consistent, so one traversal to τ_J yields every V_i[j] exactly
//   as J+1 separate `estimate_radius` calls would (core/radius_oracle.hpp).
//
// Round 2.  From the shared radius tables every machine computes
//     r̂ = min { r ∈ R : Σ_ℓ (2^{min{j : V_ℓ[j] ≤ r}} − 1) ≤ 2z },
//   its own outlier guess ĵ_i = min{j : V_i[j] ≤ r̂}, and builds the local
//   mini-ball covering MBCConstruction(P_i, k, 2^{ĵ_i}−1, ε) reusing the
//   radius V_i[ĵ_i] it already computed (the paper's determinism argument in
//   Lemma 9).  All coverings are sent to the coordinator.
//
// Coordinator.  ∪_i P*_i is an (ε,k,z)-mini-ball covering of P (Lemma 9);
//   it is recompressed with a fresh MBCConstruction, giving an
//   (ε', k, z)-coreset with ε' = 2ε + ε² ≤ 3ε (Lemma 5 + Lemma 3).
//
// This mechanism is what removes the Ω(z)-per-machine term: the r̂ rule
// guarantees Σ_i (2^{ĵ_i} − 1) ≤ 2z, so the total number of "outlier slots"
// shipped to the coordinator is ≤ 2z even under adversarial distributions.

#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "mpc/simulator.hpp"

namespace kc::mpc {

struct TwoRoundOptions {
  double eps = 0.5;
};

/// `coreset` is the final coreset at the coordinator, `merged` = ∪_i P*_i.
struct TwoRoundResult : Coordinated {
  double eps_effective = 0.0; ///< 2ε + ε² after the coordinator recompression
  double r_hat = 0.0;         ///< the agreed radius threshold
  std::int64_t sum_outlier_guesses = 0;  ///< Σ_i (2^{ĵ_i} − 1), must be ≤ 2z
  MpcStats stats;
};

/// Runs Algorithm 2 on a pre-partitioned input.  parts.size() = number of
/// machines; machine 0 is the coordinator and also holds parts[0].  The
/// context supplies the execution environment (pool, fault injector,
/// transport — see mpc/context.hpp); a default-constructed context means
/// sequential, fault-free, in-process.
[[nodiscard]] TwoRoundResult two_round_coreset(
    const std::vector<WeightedSet>& parts, int k, std::int64_t z,
    const Metric& metric, const ExecContext& ctx = {},
    const TwoRoundOptions& opt = {});

/// Lower bound on the bytes Round 1's broadcast holds at once: each of m
/// machines sends its (V, ρ) tables to the m − 1 others, and all m(m − 1)
/// messages live until Round 2 reads them.  In double, so any m compares.
[[nodiscard]] double round1_broadcast_bytes(int machines, std::int64_t z);

}  // namespace kc::mpc
