// End-of-pipeline solver: extract an actual k-center-with-outliers solution
// from a coreset, and evaluate it back on the original instance.
//
// The paper's pipelines all end this way (§1, "About the approximation
// factor"): run an offline algorithm on the coreset; its factor multiplies
// into the final (1±ε) guarantee.  We use the Charikar greedy as that
// offline algorithm, giving a 3(1+ε)-style end-to-end approximation.
//
// The solver reads the radius oracle's working set: it takes the centers
// of the Charikar run behind `estimate_radius` (core/radius_oracle.hpp) —
// on the input, or above the Auto threshold on its Gonzalez summary — and
// evaluates them on the input.  Whether to compress first is decided only
// there.

#pragma once

#include <cstdint>

#include "core/radius_oracle.hpp"
#include "core/types.hpp"

namespace kc {

/// Solves k-center with z outliers on `pts` (typically a coreset) and
/// returns centers with their exact radius on `pts`.  `oracle` selects the
/// oracle path and carries the pool and an optional prebuilt buffer of
/// `pts`.
[[nodiscard]] Solution solve_kcenter_outliers(const WeightedSet& pts, int k,
                                              std::int64_t z,
                                              const Metric& metric,
                                              const OracleOptions& oracle = {});

/// The paper's "optimal but slow algorithm on the coreset → (1+ε) overall"
/// path (§1, "About the approximation factor"): exact discrete-center
/// search when C(|pts|, k) is small, otherwise falls back to the greedy
/// solver.  `budget` caps the number of center sets enumerated.
[[nodiscard]] Solution solve_kcenter_outliers_exact(
    const WeightedSet& pts, int k, std::int64_t z, const Metric& metric,
    std::uint64_t budget = 2'000'000);

/// Cluster labels for a solution: labels[i] = index of the nearest center
/// covering point i, or −1 if point i is an outlier.  Outliers are chosen
/// exactly as in the cost model: the points farther than `sol.radius` from
/// every center (their total weight is ≤ z whenever sol.radius came from
/// radius_with_outliers on the same instance).
struct Labeling {
  std::vector<int> labels;        ///< per input point; −1 = outlier
  std::int64_t outlier_weight = 0;
};
[[nodiscard]] Labeling classify(const WeightedSet& pts, const Solution& sol,
                                const Metric& metric);

}  // namespace kc
