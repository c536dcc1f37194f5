// Radius oracles: two-sided estimates of optk,z(P).
//
// Every mini-ball-covering construction in the paper consumes the radius r
// reported by `Greedy` [14] together with its approximation factor: it
// needs  opt ≤ r ≤ ρ·opt  (lower side for the covering property, upper side
// for the size bound, Lemma 7).  We expose that contract as RadiusEstimate
// and provide three implementations:
//
//  * Charikar      — the paper's choice: ladder-searched Charikar greedy,
//                    ρ = kCharikarRho = 3(1+β), β = kCharikarBeta = 0.25,
//                    with respect to the discrete-center optimum (see
//                    charikar.hpp for why, and for the discretisation).
//  * Summary       — fast path: Gonzalez summary of τ = k·⌈4/γ⌉^d + z + 1
//                    centers, γ = kSummaryGamma = 0.5 (covering radius
//                    δ ≤ γ·opt by the packing bound), Charikar on the
//                    summary, r = r_S + δ.  Factor ρ = ρ_C(1+γ) + γ; cost
//                    O(n·τ) instead of the ladder of greedy passes over the
//                    full input.
//  * Auto          — Summary when the input has more than kAutoThreshold
//                    = 600 points, Charikar otherwise.
//
// Every estimate keeps the centers of the Charikar run it came from (on
// the input, or on its summary).  The end-of-pipeline solver
// (core/solver.hpp) evaluates those centers instead of deciding a second
// time whether to compress; this file is the one place that decision is
// made.
//
// Outlier-guess ladder.  Round 1 of the 2-round MPC algorithm needs the
// estimate for every guess z_j = 2^j − 1 on the same local set.  The
// Summary budgets τ_j = k·⌈4/γ⌉^d + z_j + 1 differ only in z_j, and the
// Gonzalez traversal is prefix-consistent (core/gonzalez.hpp): the first
// τ_j centers of a run to max τ_j, with the assignment as it stood after
// them, are exactly a run to τ_j.  `estimate_radius_ladder` therefore packs
// the input once, runs one traversal and reads each guess's summary and δ
// off its prefix; guesses with n ≤ τ_j (and every guess of a non-Summary
// oracle) take the Charikar fallback on the input.  `estimate_radius` is
// its one-guess case, so both give the same estimate for the same guess.
//
// Both underlying passes (Gonzalez relaxation, Charikar greedy) run on the
// performance layer — inline kernels + hash-grid neighborhoods, see
// geometry/kernels.hpp and docs/ARCHITECTURE.md — so the Charikar oracle is
// usable well beyond the sizes the original O(ladder·k·n²) rescan allowed.
//
// All guarantees are stated for positive-integer-weighted inputs, matching
// the weighted problem of the paper.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "util/exec_context.hpp"

namespace kc {

struct RadiusEstimate {
  double radius = 0.0;  ///< estimate r with opt ≤ r ≤ rho·opt
  double rho = 1.0;     ///< stated approximation factor of `radius`
  /// Centers of the Charikar run behind `radius` (≤ k points, taken from
  /// the input or its Gonzalez summary); empty for an empty input.
  PointSet centers;
};

enum class OracleKind : std::uint8_t { Charikar, Summary, Auto };

/// Summary oracle's target δ/opt ratio γ.
inline constexpr double kSummaryGamma = 0.5;
/// Auto oracle: input size above which the Summary path is taken.
inline constexpr std::size_t kAutoThreshold = 600;

struct OracleOptions {
  OracleKind kind = OracleKind::Auto;
  /// Execution environment (util/exec_context.hpp): `exec.pool` runs the
  /// chunk-parallel batch kernels (results are bit-identical with or
  /// without); `exec.buffer` is a prebuilt SoA buffer of the input in the
  /// same order, letting the Gonzalez and Charikar passes skip their own
  /// AoS→SoA re-pack (ignored when null or stale — results are identical
  /// either way).
  ExecContext exec;
};

/// Computes a two-sided estimate of optk,z(pts).
[[nodiscard]] RadiusEstimate estimate_radius(const WeightedSet& pts, int k,
                                             std::int64_t z, const Metric& metric,
                                             const OracleOptions& opt = {});

/// out[j] = estimate_radius(pts, k, zs[j], metric, opt), bit for bit, with
/// one SoA pack and (Summary path) one Gonzalez traversal for all guesses.
[[nodiscard]] std::vector<RadiusEstimate> estimate_radius_ladder(
    const WeightedSet& pts, int k, std::span<const std::int64_t> zs,
    const Metric& metric, const OracleOptions& opt = {});

/// The τ(γ) center budget that forces the Gonzalez covering radius down to
/// ≤ γ·optk,z (packing bound, Lemma 6): k·⌈4/γ⌉^d + z + 1.
[[nodiscard]] std::int64_t summary_center_budget(int k, std::int64_t z,
                                                 double gamma, int dim);

}  // namespace kc
