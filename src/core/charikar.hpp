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
// (1+β)-dense geometric ladder of candidate radii.  The returned value
// r_out = 3·r₀ then satisfies the two-sided bound the mini-ball
// constructions need:
//
//    optk,z(P)  ≤  r_out  ≤  ρ · optk,z(P),       ρ = 3(1+β)·c_disc
//
// The lower bound is unconditional (success at r₀ exhibits k balls of
// radius 3r₀ covering all but ≤ z weight).  For the upper bound, the ladder
// contains a candidate within factor (1+β) above any value in its range and
// in R^d a pairwise distance d* with optk,z ∈ [d*/2, d*] always exists, so
// the smallest successful candidate is ≤ 2(1+β)·opt in the worst case
// (c_disc = 2); on the instances of interest success at the first candidate
// ≥ opt makes c_disc = 1.  We report ρ conservatively as 6(1+β); tests
// verify the bound empirically with planted-opt instances.

#pragma once

#include <cstdint>
#include <optional>

#include "core/types.hpp"
#include "mpc/context.hpp"

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
[[nodiscard]] CharikarRun charikar_run(const WeightedSet& pts, int k,
                                       std::int64_t z, double r,
                                       const Metric& metric,
                                       ThreadPool* pool = nullptr,
                                       const kernels::PointBuffer* buffer =
                                           nullptr);

struct CharikarResult {
  double radius = 0.0;   ///< r_out = 3·r₀ (two-sided opt estimate, see above)
  double rho = 0.0;      ///< stated approximation factor of `radius`
  PointSet centers;      ///< centers of the successful run (balls radius r_out)
};

struct CharikarOptions {
  double beta = 0.25;    ///< ladder density; ρ grows with (1+β)
  int max_ladder = 96;   ///< ladder length cap (range 2^{-max_ladder}·hi .. hi)
  /// Execution environment (mpc/context.hpp): `exec.pool` is forwarded to
  /// every charikar_run; `exec.buffer` is a prebuilt SoA buffer of `pts`
  /// in the same order — when null the oracle builds one itself, once,
  /// shared by every ladder guess (ignored when stale; results are
  /// identical either way).  Fault/transport members are unused here.
  mpc::ExecContext exec;
};

/// Full oracle: ladder construction + binary search for the smallest
/// successful guess.  Handles degenerate cases (n ≤ z total weight → radius
/// 0 with arbitrary centers; all points equal → radius 0).
[[nodiscard]] CharikarResult charikar_oracle(const WeightedSet& pts, int k,
                                             std::int64_t z,
                                             const Metric& metric,
                                             const CharikarOptions& opt = {});

}  // namespace kc
