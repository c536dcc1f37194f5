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
// Batched ingest: update_batch() takes a whole script and leaves every
// sketch word exactly as one update() per element would.  Every sketch is
// linear over F_p — a one-sparse cell holds Σ ξ, Σ ξ·x and Σ ξ·r^x, a
// power-sum syndrome Σ ξ·x^j, and which cells a key reaches depends on the
// key alone — so the ξ of one (level, cell) may be summed first and added
// once; a zero sum adds nothing and is skipped.  The script is cut into
// chunks of kBatchChunk updates.  Per chunk:
//   * each update is checked (sign, dimension, coordinate range) and
//     counted into the live total, so strict turnstile holds on every
//     prefix, not only at chunk ends;
//   * the level-0 cells (all d coordinates packed ⌈log2 Δ⌉ bits each) are
//     sorted once and summed per cell, dropping zero sums;
//   * level l's cells come from level l−1's survivors: each packed
//     coordinate shifts right by one bit.  A cell whose sum is zero adds
//     nothing to its parent cell, so dropping it early is exact.  Each
//     level's keys are sorted and summed again;
//   * each nonzero (level, cell) sum s gets one embed_key, signed_mod and
//     r_l^x, then one add to S(G_l) and F(G_l) — the helper update() uses
//     with s = ±1.
// A chunk costs one sort of ≤ kBatchChunk keys plus sorts of the shrinking
// survivor lists, and sketch work per surviving (level, cell) instead of
// per update and level.  Inputs with locality (points re-hitting the same
// cells, deletes near their inserts) gain most; a live set spread
// uniformly over the universe still shares the coarse levels.
//
// The `deterministic_recovery` option swaps the randomized peeling sketch
// for the power-sum (Vandermonde) sketch of power_sum.hpp — the paper's §1
// determinisation remark — at the cost of a universe scan during decoding
// (intended for the small-Δ demos; see PAPER.md, "Documented
// substitutions").

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "geometry/grid.hpp"
#include "sketch/f0_estimator.hpp"
#include "sketch/one_sparse.hpp"
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

  /// Applies `ups` in order; the sketch state (and so query() and words())
  /// ends bit-identical to one update() per element.  Strict turnstile is
  /// checked on every prefix.
  void update_batch(std::span<const GridUpdate> ups);

  /// Updates summed per (level, cell) in one pass of update_batch.
  static constexpr std::size_t kBatchChunk = 4096;

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

  /// words() of a sketch built from `opt`, from the options alone and in
  /// double, so any size compares.  Requires GridHierarchy::fits.
  [[nodiscard]] static double predicted_words(const DynamicCoresetOptions& opt);

  [[nodiscard]] const GridHierarchy& grids() const noexcept { return grids_; }
  [[nodiscard]] std::int64_t live_points() const noexcept { return live_; }

  /// Every non-empty cell of `level` with its exact count, or nullopt when
  /// S(G_level) does not decode.
  // kc-lint-allow(exports): the update_batch differential
  // (DynamicCoreset.UpdateBatchMatchesUpdateOnRandomSplits) compares the
  // sketch state level by level.
  [[nodiscard]] std::optional<std::vector<std::pair<std::uint64_t, std::int64_t>>>
  recover_level(int level) const;

  /// F(G_level)'s estimate of the number of non-empty cells of `level`.
  // kc-lint-allow(exports): the update_batch differential
  // (DynamicCoreset.UpdateBatchMatchesUpdateOnRandomSplits) compares the
  // sketch state level by level.
  [[nodiscard]] double f0_estimate(int level) const {
    return f0_[static_cast<std::size_t>(level)].estimate();
  }

 private:
  struct CellSum {
    std::uint64_t key;  ///< packed cell coordinates (update_batch)
    std::int64_t sum;
  };

  DynamicCoresetOptions opt_;
  GridHierarchy grids_;
  std::int64_t s_;
  std::vector<sketch::SparseRecovery> recovery_;      // randomized path
  std::vector<sketch::PowerSumSketch> det_recovery_;  // deterministic path
  std::vector<sketch::F0Estimator> f0_;
  std::int64_t live_ = 0;
  // update_batch's per-chunk (cell, sum) list, reserved once at
  // kBatchChunk entries and never grown.
  std::vector<CellSum> scratch_;

  /// Adds `delta` copies of cell `cell` of `level` to S(G_level) and
  /// F(G_level): the one code path that touches the sketches.
  void add_cell(std::size_t level, std::uint64_t cell, std::int64_t delta);
  void apply_chunk(std::span<const GridUpdate> chunk);
};

/// The sample budget formula s = k(4√d/ε)^d + z, in double, so a caller
/// can range-check it before any integer conversion.
[[nodiscard]] double dynamic_sample_budget_real(int k, std::int64_t z,
                                                double eps, int dim);

/// The largest sample budget whose sketch is representable: S(G_l) holds
/// kRows rows of 2s one-sparse cells in one array, so its byte size must
/// fit in ptrdiff_t.
inline constexpr std::int64_t kMaxSampleBudget =
    PTRDIFF_MAX / static_cast<std::int64_t>(2 * sketch::SparseRecovery::kRows *
                                            sizeof(sketch::OneSparseCell));

/// s = k(4√d/ε)^d + z as an integer; requires s ≤ kMaxSampleBudget.
// kc-lint-allow(exports): DynamicCoreset.SampleBudgetBound checks the
// int64 result at ~1.2e16, past any budget a DynamicCoreset can allocate.
[[nodiscard]] std::int64_t dynamic_sample_budget(int k, std::int64_t z,
                                                 double eps, int dim);

}  // namespace kc::dynamic
