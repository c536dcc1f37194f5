// Charikar–Khuller–Mount–Narasimhan greedy for k-center with outliers [14]
// — the `Greedy(P, k, z)` subroutine of the paper.
//
// Single guess: given a radius guess r, repeatedly pick the input point
// whose ball b(·, r) covers the most uncovered weight and remove everything
// within the expanded ball b(·, 3r).  If after k picks the uncovered weight
// is ≤ z the guess *succeeds*; the k expanded balls of radius 3r are a
// feasible solution.  The classic guarantee: every guess r ≥ optk,z(P)
// succeeds, and success is monotone in r.
//
// Oracle: we binary-search the smallest successful guess r₀ over a
// (1+β)-dense geometric ladder of candidate radii hi/(1+β)^j, j = 0..96
// (`kMaxLadder` in charikar.cpp), hi = the 1-center radius around pts[0].
// The returned value r_out = 3·r₀ then satisfies the two-sided bound the
// mini-ball constructions need:
//
//    optk,z(P)  ≤  r_out  ≤  ρ · opt_disc(P),     ρ = 3(1+β) = kCharikarRho
//
// with β = kCharikarBeta = 0.25.  Why 3(1+β): every guess at or above the
// discrete optimum opt_disc (centers drawn from the input) succeeds, and
// the ladder holds a candidate within a factor (1+β) above any value in
// its range, so r₀ ≤ (1+β)·opt_disc and r_out = 3r₀.  The lower bound is
// unconditional (success at r₀ exhibits k balls of radius 3r₀ covering all
// but ≤ z weight).  This ρ is the one factor the library states for
// Charikar (RadiusEstimate::rho, core/radius_oracle.hpp).  Against the
// continuous optimum, opt_disc ≤ 2·opt in R^d, so the worst case is 2ρ; on
// the instances of interest success at the first candidate ≥ opt makes it
// ρ.  Tests verify the bound empirically with planted-opt instances.

#pragma once

#include <cstdint>
#include <optional>

#include "core/types.hpp"
#include "util/exec_context.hpp"

namespace kc {

class ThreadPool;  // util/parallel.hpp

struct CharikarRun {
  PointSet centers;       ///< ≤ k greedy centers (disk centers, radius 3r)
  std::int64_t uncovered = 0;  ///< weight left uncovered by the expanded balls
  bool success = false;   ///< uncovered ≤ z
};

/// One greedy pass with a fixed radius guess r ≥ 0: candidate ball weights
/// come once from grid-bucketed neighborhoods (cell width r, or 1 at r = 0;
/// all points where a neighborhood's cells outnumber them) and are
/// maintained *incrementally* as points are covered — O(n) per round plus
/// the total size of the r-balls touched, instead of the O(n²) rescan per
/// round of the plain greedy, with bit-identical results
/// (tests/core_reference.hpp, tests/test_kernels.cpp). `pool` (optional)
/// fans the initial candidate-weight pass out over deterministic chunks —
/// same results at every thread count. `buffer` (optional) is a prebuilt SoA
/// buffer of `pts` in the same order; when null the pass packs one.
// kc-lint-allow(exports): GridEquivalence.CharikarRunMatchesScalarReference
// (tests/test_kernels.cpp) compares it with reference::charikar_run_scalar.
[[nodiscard]] CharikarRun charikar_run(const WeightedSet& pts, int k,
                                       std::int64_t z, double r,
                                       const Metric& metric,
                                       ThreadPool* pool = nullptr,
                                       const kernels::PointBuffer* buffer =
                                           nullptr);

/// Ladder density β: consecutive guesses differ by a factor (1+β).
inline constexpr double kCharikarBeta = 0.25;
/// The oracle's stated factor ρ = 3(1+β) (see the top of this header).
inline constexpr double kCharikarRho = 3.0 * (1.0 + kCharikarBeta);

struct CharikarResult {
  double radius = 0.0;   ///< r_out = 3·r₀ (two-sided opt estimate, see above)
  PointSet centers;      ///< centers of the successful run (balls radius r_out)
};

/// Full oracle: ladder construction + binary search for the smallest
/// successful guess.  Handles degenerate cases (n ≤ z total weight → radius
/// 0 with arbitrary centers; all points equal → radius 0).  `exec.pool` is
/// forwarded to every charikar_run; `exec.buffer` is a prebuilt SoA buffer
/// of `pts` in the same order — when null (or stale) the oracle packs one
/// itself, once, shared by every ladder guess.  Results are identical
/// either way.
[[nodiscard]] CharikarResult charikar_oracle(const WeightedSet& pts, int k,
                                             std::int64_t z,
                                             const Metric& metric,
                                             const ExecContext& exec = {});

}  // namespace kc
