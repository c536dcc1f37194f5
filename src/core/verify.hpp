// Verification utilities: exact checks of the mini-ball-covering properties
// (Definition 2) and empirical checks of the coreset sandwich
// (Definition 1).  Used throughout the test suite and by the QUALITY bench.

#pragma once

#include <cstdint>

#include "core/mbc.hpp"
#include "core/types.hpp"

namespace kc {

/// Definition-2 structural check against the original input:
///  * every input point is assigned to exactly one representative,
///  * each representative's weight equals the total weight of its group,
///  * total weight is preserved,
///  * every representative is an input point (subset property).
/// Returns true iff all hold.
// kc-lint-allow(exports): PAPER.md row for Definition 2, checked by
// tests/test_mbc.cpp.
[[nodiscard]] bool check_mbc_structure(const WeightedSet& input,
                                       const MiniBallCovering& mbc);

/// Maximum distance from an input point to its representative.  The
/// covering property requires this ≤ ε·optk,z(P); tests compare it against
/// ε·opt_hi of a planted instance.
[[nodiscard]] double max_assignment_dist(const WeightedSet& input,
                                         const MiniBallCovering& mbc,
                                         const Metric& metric);

/// Representatives pairwise strictly farther than `radius` apart — the
/// separation invariant the greedy pass maintains (drives the Lemma-6/7
/// size bounds).
// kc-lint-allow(exports): PAPER.md row for Definition 2, checked by
// tests/test_mbc.cpp.
[[nodiscard]] bool check_separation(const WeightedSet& reps, double radius,
                                    const Metric& metric);

/// Definition-1(2) expansion check: for a candidate solution B (centers +
/// radius r) feasible on the coreset (uncovered coreset weight ≤ z), the
/// expanded balls with radius r + slack must leave uncovered weight ≤ z on
/// the original set.  Returns true iff that holds.
// kc-lint-allow(exports): PAPER.md row for Definition 1, checked by
// tests/test_mbc.cpp and tests/test_engine.cpp.
[[nodiscard]] bool check_expansion_property(const WeightedSet& original,
                                            const WeightedSet& coreset,
                                            const PointSet& centers,
                                            double radius, double slack,
                                            std::int64_t z,
                                            const Metric& metric);

}  // namespace kc
