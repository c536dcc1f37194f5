// Gonzalez farthest-point traversal [26].
//
// Selects centers greedily: each new center is the point farthest from the
// already-selected ones.  Two classic facts the library relies on:
//
//  * With t centers the covering radius δ_t is a 2-approximation of the
//    optimal t-center radius (no outliers).
//  * The selected points are pairwise ≥ δ_t apart, so by the packing bound
//    (Lemma 6 of the paper) running until τ = k(4/ε)^d + z + 1 centers
//    forces δ_τ ≤ ε · optk,z(P).  This yields the oracle-free mini-ball
//    covering used as the fast path / ablation (see core/mbc.hpp).
//
// Weights are irrelevant to center selection but are carried through the
// assignment so callers can build weighted summaries.
//
// Prefix consistency.  The traversal is deterministic (it starts at index
// 0, takes the first farthest point on ties, and reassigns a point only on
// a strictly smaller key) and reads its budget only to stop.  So the state
// after τ centers of a longer run — centers, delta[τ−1] and assignment — is
// exactly what `gonzalez(τ)` returns, at every thread count.  A caller that
// needs several budgets (the outlier-guess ladder of the 2-round MPC
// algorithm, core/radius_oracle.hpp) runs one traversal to the largest
// budget and reads every smaller one off its prefixes (`gonzalez_prefixes`).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace kc {

class ThreadPool;  // util/parallel.hpp

struct GonzalezResult {
  /// Indices into the input set, in selection order.
  std::vector<std::size_t> center_indices;
  /// delta[t] = max distance of any point to the first (t+1) centers,
  /// i.e. the covering radius after t+1 centers have been selected.
  std::vector<double> delta;
  /// assignment[i] = index into center_indices of the nearest center.
  std::vector<std::uint32_t> assignment;

  [[nodiscard]] PointSet centers(const WeightedSet& pts) const {
    PointSet out;
    out.reserve(center_indices.size());
    for (auto i : center_indices) out.push_back(pts[i].p);
    return out;
  }
};

/// Runs the traversal until `max_centers` centers are selected (or the
/// covering radius reaches 0).  O(n · #centers) time, O(n) extra space.
/// `pool` (optional) runs the relaxation sweeps through the chunk-parallel
/// kernel for large n —
/// selected centers and assignments are bit-identical at every thread
/// count (ordered first-max-wins reduction).  `buffer` (optional) is a
/// prebuilt SoA buffer of `pts` in the same order; when null the traversal
/// packs one itself.  Results are identical either way.
[[nodiscard]] GonzalezResult gonzalez(
    const WeightedSet& pts, int max_centers, const Metric& metric,
    ThreadPool* pool = nullptr, const kernels::PointBuffer* buffer = nullptr);

/// Weighted summary induced by a traversal: one point per center, weight =
/// total weight of the points assigned to it.  Every input point is within
/// the final covering radius of its representative.
[[nodiscard]] WeightedSet gonzalez_summary(const WeightedSet& pts,
                                           const GonzalezResult& g);

/// The summary and covering radius of one traversal prefix.
struct GonzalezPrefix {
  WeightedSet summary;  ///< gonzalez_summary(pts, gonzalez(pts, τ))
  double delta = 0.0;   ///< gonzalez(pts, τ).delta.back(); 0 for empty pts
};

/// One traversal to the largest of `budgets` (each ≥ 1, any order,
/// repeats allowed), checkpointed at every budget: out[i] is what
/// `gonzalez(pts, budgets[i])` and `gonzalez_summary` give, word for word.
/// A traversal that stops early (radius 0, or fewer points than the
/// budget) gives every later budget its final prefix, as `gonzalez` would.
/// `pool` and `buffer` as for `gonzalez`.
[[nodiscard]] std::vector<GonzalezPrefix> gonzalez_prefixes(
    const WeightedSet& pts, std::span<const int> budgets, const Metric& metric,
    ThreadPool* pool = nullptr, const kernels::PointBuffer* buffer = nullptr);

}  // namespace kc
