// Coreset composition helpers (Lemmas 4 and 5 of the paper).
//
// Lemma 4 (union): mini-ball coverings of disjoint parts, built with outlier
// budgets z_i satisfying optk,zi(P_i) ≤ optk,z(P), union into an
// (ε,k,z)-mini-ball covering of P.  Concatenation is `merge_coresets` in
// mbc.hpp; this header adds the error-composition arithmetic used by the
// MPC coordinator and the R-round algorithm.
//
// Lemma 5 (transitivity): an (ε,·)-covering of a (γ,·)-covering of P is an
// (ε+γ+εγ,·)-covering of P.  `compose_eps` computes that error; a fresh
// MBCConstruction on top of an existing coreset (what the coordinator does
// with ∪P*_i) is plain `mbc_construct`.

#pragma once

namespace kc {

/// Error parameter after stacking a fresh ε-covering on a γ-covering
/// (Lemma 5): ε + γ + εγ = (1+ε)(1+γ) − 1.
[[nodiscard]] constexpr double compose_eps(double eps, double gamma) noexcept {
  return (1.0 + eps) * (1.0 + gamma) - 1.0;
}

/// Error after R rounds of ε-compositions (Theorem 35): (1+ε)^R − 1.
[[nodiscard]] double compose_eps_rounds(double eps, int rounds) noexcept;

}  // namespace kc
