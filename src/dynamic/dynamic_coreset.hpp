// Algorithm 5: fully dynamic streaming (ε,k,z)-coreset over [Δ]^d
// (paper §5, Theorem 21).
//
// Grids G_0..G_⌈log Δ⌉ partition the universe into cells of side 2^i.  For
// every grid the structure maintains
//   * an s-sparse recovery sketch S(G_i) over the cell ids, with
//     s = k(4√d/ε)^d + z, and
//   * an F0 estimator F(G_i) for the number of non-empty cells,
// under point insertions and deletions (strict turnstile).  A query finds
// the finest grid whose estimated non-empty-cell count is ≤ s, recovers all
// of its non-empty cells with exact point counts, and reports the weighted
// cell centers — a *relaxed* (ε,k,z)-coreset (Lemmas 25–26: if
// 2^j ≤ (ε/√d)·opt < 2^{j+1} then G_j has ≤ s non-empty cells and its cell
// centers displace points by ≤ (√d/2)·2^j ≤ ε·opt/… within the ε budget).
//
// Update cost: one update touches every grid level and does the field
// work once per level — the embedded cell id x and r_l^x, where r_l is the
// fingerprint point that S(G_l) and all levels of F(G_l) share
// (sparse_recovery.hpp explains why sharing keeps the Schwartz–Zippel
// bound).  r_l comes from a stream of its own, so the sketch seeds, and
// with them every row and level hash, do not depend on it.  Each sketch
// then hashes x in its 4 rows and updates one 3-word cell per row.
// words() counts 3 words per cell, 8 per row or level hash and 4 header
// words per sketch.
//
// The `deterministic_recovery` option swaps the randomized peeling sketch
// for the power-sum (Vandermonde) sketch of power_sum.hpp — the paper's §1
// determinisation remark — at the cost of a universe scan during decoding
// (intended for the small-Δ demos; see DESIGN.md).

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/types.hpp"
#include "geometry/grid.hpp"
#include "sketch/f0_estimator.hpp"
#include "sketch/power_sum.hpp"
#include "sketch/sparse_recovery.hpp"

namespace kc::dynamic {

struct DynamicCoresetOptions {
  int k = 2;
  std::int64_t z = 4;
  double eps = 0.5;
  std::int64_t delta = 256;  ///< universe side Δ
  int dim = 2;
  double f0_eps = 0.5;       ///< F0 accuracy (constant factor suffices)
  std::uint64_t seed = 1;
  bool deterministic_recovery = false;  ///< power-sum variant (extension)
};

class DynamicCoreset {
 public:
  explicit DynamicCoreset(const DynamicCoresetOptions& opt);

  /// Insert (sign = +1) or delete (sign = −1) one point of [Δ]^d.
  void update(const GridPoint& p, int sign);

  struct QueryResult {
    WeightedSet coreset;          ///< weighted cell centers (relaxed coreset)
    int level = -1;               ///< grid level used
    std::size_t nonempty_cells = 0;
    double cell_side = 0.0;
    bool ok = false;
  };
  [[nodiscard]] QueryResult query() const;

  /// s = k(4√d/ε)^d + z — the per-grid sample budget.
  [[nodiscard]] std::int64_t sample_budget() const noexcept { return s_; }

  /// Total sketch storage in words (the measured Table-1 quantity).
  [[nodiscard]] std::size_t words() const;

  [[nodiscard]] const GridHierarchy& grids() const noexcept { return grids_; }
  [[nodiscard]] std::int64_t live_points() const noexcept { return live_; }

 private:
  DynamicCoresetOptions opt_;
  GridHierarchy grids_;
  std::int64_t s_;
  std::vector<sketch::SparseRecovery> recovery_;      // randomized path
  std::vector<sketch::PowerSumSketch> det_recovery_;  // deterministic path
  std::vector<sketch::F0Estimator> f0_;
  std::int64_t live_ = 0;

  [[nodiscard]] std::optional<std::vector<std::pair<std::uint64_t, std::int64_t>>>
  recover_level(int level) const;
};

/// The sample budget formula s = k(4√d/ε)^d + z.
[[nodiscard]] std::int64_t dynamic_sample_budget(int k, std::int64_t z,
                                                 double eps, int dim);

}  // namespace kc::dynamic
