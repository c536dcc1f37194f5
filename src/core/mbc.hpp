// Mini-ball coverings (paper §2).
//
// An (ε,k,z)-mini-ball covering of a weighted set P is a weighted subset
// P* ⊆ P that partitions P into groups Q_i, each within distance
// ε·optk,z(P) of its representative q_i ∈ P*, with w(q_i) = w(Q_i)
// (Definition 2).  Lemma 3: every mini-ball covering is an (ε,k,z)-coreset.
//
// This module provides:
//  * `mbc_with_radius`  — the greedy covering pass shared by Algorithm 1
//                         (MBCConstruction) and Algorithm 4 (UpdateCoreset):
//                         scan points, assign each to the first
//                         representative within the mini-ball radius,
//                         promote it to a representative otherwise.
//  * `mbc_construct`    — Algorithm 1: obtain r with opt ≤ r ≤ ρ·opt from a
//                         radius oracle, then cover with radius ε·r/ρ.
//                         Guarantees: covering radius ≤ ε·opt and
//                         |P*| ≤ k(4ρ/ε)^d + z (Lemma 7, ρ-generalised).
//  * `mbc_via_gonzalez` — oracle-free construction used as the fast path
//                         and the ABL-ORACLE ablation: run Gonzalez until
//                         τ = k(4/ε)^d + z + 1 centers; the packing bound
//                         (Lemma 6) forces the covering radius ≤ ε·opt.
//  * `mbc_size_bound`   — the Lemma-7 size bound, used by tests.

#pragma once

#include <cstdint>
#include <vector>

#include "core/radius_oracle.hpp"
#include "core/types.hpp"

namespace kc {

/// A mini-ball covering together with construction metadata.  `reps` is the
/// coreset; `assignment` maps each input index to its representative's index
/// in `reps` (kept for verification; algorithms that must not store it can
/// ignore it — it is not counted as part of the coreset).
struct MiniBallCovering {
  WeightedSet reps;
  std::vector<std::uint32_t> assignment;
  double cover_radius = 0.0;   ///< mini-ball radius actually used
  double oracle_radius = 0.0;  ///< r returned by the oracle (0 if oracle-free)
  double rho = 1.0;            ///< stated factor of oracle_radius
};

/// Greedy covering pass with an explicit mini-ball radius (Algorithm 4,
/// UpdateCoreset).  Scan order is input order; representatives keep their
/// original coordinates and accumulate the weight of the points they absorb.
/// Postcondition: representatives are pairwise > radius apart.
///
/// Runs adaptively: an early-exit linear scan while the rep set is small,
/// then (for radius > 0) a hash grid (geometry/grid_index.hpp) of the
/// representatives so each point probes only grid-adjacent reps.  Either
/// way each point joins the lowest-index representative within the radius,
/// the same result as the plain O(n·|reps|) scan kept in
/// tests/core_reference.hpp (pinned by tests/test_kernels.cpp).
[[nodiscard]] MiniBallCovering mbc_with_radius(const WeightedSet& pts,
                                               double radius,
                                               const Metric& metric);

/// Algorithm 1, MBCConstruction(P, k, z, ε): radius oracle + greedy cover
/// with mini-ball radius ε·r/ρ.
[[nodiscard]] MiniBallCovering mbc_construct(const WeightedSet& pts, int k,
                                             std::int64_t z, double eps,
                                             const Metric& metric,
                                             const OracleOptions& oracle = {});

/// Oracle-free construction via Gonzalez + packing bound; covering radius is
/// ≤ ε·optk,z(P) by Lemma 6, size ≤ k·⌈4/ε⌉^d + z + 1.
[[nodiscard]] MiniBallCovering mbc_via_gonzalez(const WeightedSet& pts, int k,
                                                std::int64_t z, double eps,
                                                const Metric& metric);

/// Lemma 7 size bound, ρ-generalised: k·(4ρ/ε)^d + z.
[[nodiscard]] double mbc_size_bound(int k, std::int64_t z, double eps,
                                    double rho, int dim);

/// Lemma 4 (union property): concatenates mini-ball coverings of disjoint
/// parts into a covering of the union.
[[nodiscard]] WeightedSet merge_coresets(const std::vector<WeightedSet>& parts);

}  // namespace kc
