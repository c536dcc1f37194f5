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
//
// Pruning.  Every point keeps the key (squared distance under L2, the
// distance under L1/L∞) to its nearest center.  The classic step relaxes
// all n keys against the new center q; this one skips the points that
// provably keep their center, and its results are bit-identical to the full
// scan (tests/core_reference.hpp, `gonzalez_full`).  A point p of center
// c's cluster cannot move to q when d(c, q) ≥ 2·d(p, c), because then
// d(p, q) ≥ d(c, q) − d(p, c) ≥ d(p, c).  Each cluster groups its members
// (point indices) into bands by the binary exponent of their key: every
// key in a band is below its bound U = 2^e, and keys below 2^−1000 share
// one band.  Step q computes key(c, q) for all centers in one vectorized
// pass; it scans a cluster's bands from the top down and stops at the
// first band with
//
//     key(c, q) > F · U · (1 + 1e−9),   F = 4 under L2, 2 under L1 and L∞,
//
// where the points with a strictly smaller key to q move to q's new
// cluster.  The farthest point is the max over each cluster's (max key,
// lowest index), so the first max still wins.
//
// Why the margin is safe.  Write k̂ for a computed key and k for the exact
// one, u = 2^−53.  For d ≤ 8 and coordinates within
// Point::kMaxAbsCoordinate no key overflows (8·(2e150)² < 1e302).  Under L1
// and L∞ a subtraction, an absolute value, a max and a sum whose result is
// subnormal are all exact, so k̂ = k(1 + θ) with |θ| ≤ 9u.  Under L2 a
// square may underflow, so k̂ = k(1 + θ) + η with |θ| ≤ γ₁₀ ≈ 10u and
// |η| ≤ 8·2^−1074, and U ≥ 2^−1000 makes |η| ≤ 2^−71·U.  The bound
// F·U·(1 + 1e−9) is itself rounded once, by at most 2u.  Take a skipped
// point p with k̂(p, c) < U and k̂(c, q) > F·U·(1 + 1e−9).  Under L2,
// d(p, c) ≤ √U·(1 + 2^−50) and d(c, q) ≥ 2√U·(1 + 4.9e−10), so
// d(p, q) ≥ d(c, q) − d(p, c) ≥ √U·(1 + 9e−10) and
// k̂(p, q) ≥ U·(1 + 1.8e−9)(1 − 10u) − 2^−71·U > U > k̂(p, c).  Under L1
// and L∞ the same steps give d(p, q) ≥ U·(1 + 1.9e−9) and k̂(p, q) > U.
// Either way p's computed key to q is not strictly smaller, so the full
// scan would not move it either.  The relative rounding (about 1e−15) is
// six orders of magnitude inside the 1e−9 margin.
//
// Cost.  The first center relaxes all n points through the chunk-parallel
// relax kernel on `pool`; that sweep is the only work the pool runs, and
// its result does not depend on the thread count.  Each later step costs
// O(t·d) for the center keys, O(t) to test each cluster's top band and to
// find the farthest point, and O(d) per member of the bands it scans.  The
// worst case stays O(n·τ + τ²·d).  But the centers are pairwise at least
// δ_{t−1} apart, every cluster radius is at most δ_{t−1}, and a band's
// bound is below twice its keys, so a step reaches only clusters whose
// center lies within 2√2·δ_{t−1} (L2) or 4·δ_{t−1} (L1, L∞) of q, up to
// the margin.  By the packing bound of Lemma 6 there are about 7^d (L2)
// or 9^d of them at most, a constant in fixed dimension, and in each it
// scans only the bands whose bound U is at least key(c, q)/(F·(1 + 1e−9)).
// Apart from the centers, memory is the n keys and assignments, an arena
// of 2n uint32 member indices, and the points that move in one step with
// their bands.  No coordinates are copied.

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
};

/// Runs the traversal until `max_centers` centers are selected (or the
/// covering radius reaches 0).  At most O(n · #centers) time, usually far
/// less (pruning, above); O(n) extra space.  `pool` (optional) runs the
/// first center's sweep over all n points through the chunk-parallel
/// kernel — selected centers and assignments are bit-identical at every
/// thread count (ordered first-max-wins reduction).  `buffer` (optional)
/// is a prebuilt SoA buffer of `pts` in the same order; when null the
/// traversal packs one itself.  Results are identical either way.
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
