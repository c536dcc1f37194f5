// Mini-ball coverings (paper §2).
//
// An (ε,k,z)-mini-ball covering of a weighted set P is a weighted subset
// P* ⊆ P that partitions P into groups Q_i, each within distance
// ε·optk,z(P) of its representative q_i ∈ P*, with w(q_i) = w(Q_i)
// (Definition 2).  Lemma 3: every mini-ball covering is an (ε,k,z)-coreset.
//
// This module provides:
//  * `GreedyCover`      — the greedy covering pass shared by Algorithm 1
//                         (MBCConstruction), Algorithm 4 (UpdateCoreset)
//                         and Algorithm 3's insert: each added point joins
//                         the lowest-index representative within the
//                         mini-ball radius, or becomes one.
//  * `mbc_with_radius`  — one GreedyCover pass over a set, plus the
//                         point → representative assignment.
//  * `mbc_construct`    — Algorithm 1: obtain r with opt ≤ r ≤ ρ·opt from a
//                         radius oracle, then cover with radius ε·r/ρ.
//                         Guarantees: covering radius ≤ ε·opt and
//                         |P*| ≤ k(4ρ/ε)^d + z (Lemma 7, ρ-generalised).
//  * `mbc_via_gonzalez` — oracle-free construction used as the fast path
//                         and the ABL-ORACLE ablation: run Gonzalez until
//                         τ = k(4/ε)^d + z + 1 centers; the packing bound
//                         (Lemma 6) forces the covering radius ≤ ε·opt.
//  * `mbc_size_bound`   — the Lemma-7 size bound, used by tests.
//
// The cover's probe.  While the representatives are few it scans them in
// index order through the blocked first-within kernel over an SoA copy of
// their coordinates.  Once the radius is positive and there are at least
// kCoverGridFactor·3^d of them it drops that copy and indexes them in a
// hash grid (geometry/grid_index.hpp) of cell width = radius instead: only
// the 3^d cells around a point can hold a representative within the
// radius, each cell lists its representatives in index order, and the
// smallest qualifying index over those cells is the scan's first hit.
// Where the cover switches changes no output, only its cost.
//
// Why C·3^d.  A grid probe costs 3^d hash lookups however few
// representatives sit near the point (6561 at d = 8), while the scan costs
// one vectorized distance per representative ahead of the first hit.  On
// planted 50k-point covers the grid first paid at about 150·3^d
// representatives at d = 2 and 3; on drifting streams, whose first hit
// sits late in the scan, earlier.  C = 128 was within noise of the faster
// probe in every case measured at d ∈ {2, 3, 4} (covers of 200–6500
// representatives, stream ingests of 1e5–1e6 points); C = 8 made covers
// of 200–5000 representatives 2–8× slower.  No fixed count suits every d:
// one low enough for d = 2 switches at d = 8 long before 6561 lookups pay.
// Those measurements priced a lookup in a node-based hash map; a lookup in
// the grid's flat cell table costs about 20–35 scanned distances at d = 2
// and 3, against 30–50 for the map (random probes of 3172–9000 greedy
// representatives).  That moves the break-even down by less than 2×, and
// C = 32 showed no reliable win on a d = 2 stream ingest of 1e6 drifting
// points, so C stays 128 until a probe of its own re-decides it.

#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/radius_oracle.hpp"
#include "core/types.hpp"
#include "geometry/grid_index.hpp"

namespace kc {

/// A mini-ball covering together with construction metadata.  `reps` is the
/// coreset; `assignment` maps each input index to its representative's index
/// in `reps` (kept for verification; algorithms that must not store it can
/// ignore it — it is not counted as part of the coreset).
struct MiniBallCovering {
  WeightedSet reps;
  std::vector<std::uint32_t> assignment;
  double cover_radius = 0.0;   ///< mini-ball radius actually used
  double oracle_radius = 0.0;  ///< r returned by the oracle (0 if oracle-free)
  double rho = 1.0;            ///< stated factor of oracle_radius
};

/// The cover switches from the scan to the grid probe once it holds
/// kCoverGridFactor·3^d representatives (and the radius is positive).
inline constexpr std::size_t kCoverGridFactor = 128;

/// Append-only greedy cover at one mini-ball radius.  Representatives keep
/// the coordinates of the point that founded them and accumulate the weight
/// of every point that joins them; those added at one radius are pairwise
/// more than that radius apart.
class GreedyCover {
 public:
  /// radius ≥ 0; dim in [1, Point::kMaxDim].
  GreedyCover(double radius, int dim, const Metric& metric);

  /// Joins p to the lowest-index representative within the radius, adding
  /// w (> 0) to its weight, or appends p with weight w.  Returns the index
  /// of the representative p now belongs to.
  std::uint32_t add(const Point& p, std::int64_t w);

  /// Changes the radius for later adds; the representatives stay as they
  /// are (they may now be closer than the radius) and the probe is rebuilt
  /// over them.
  void set_radius(double radius);

  [[nodiscard]] const WeightedSet& reps() const& noexcept { return reps_; }
  [[nodiscard]] WeightedSet reps() && noexcept { return std::move(reps_); }

  /// Representative count at which the probe switches from the scan to the
  /// grid: kCoverGridFactor·3^dim.
  // kc-lint-allow(exports): the cover and stream differentials
  // (GridEquivalence.MbcWithRadiusMatchesScalarReference,
  // StreamDifferential.*) size their inputs to cross the scan→grid switch.
  [[nodiscard]] static std::size_t grid_switch(int dim) noexcept;

 private:
  template <Norm N>
  [[nodiscard]] std::uint32_t probe(const double* q) const;
  [[nodiscard]] bool grid_due() const noexcept {
    return radius_ > 0.0 && reps_.size() >= grid_switch(dim_);
  }
  /// Rebuilds the probe for the current radius and representatives: the
  /// grid once it is due, else the scan buffer.
  void rebuild_probe();

  double radius_ = 0.0;
  double key_ = 0.0;
  int dim_;
  Norm norm_;
  WeightedSet reps_;
  kernels::PointBuffer scan_;      ///< rep coordinates, while scanning
  std::optional<GridIndex> grid_;  ///< reps by cell, once the grid is due
};

/// Greedy covering pass with an explicit mini-ball radius (Algorithm 4,
/// UpdateCoreset): every point of `pts`, in input order, through one
/// GreedyCover.  The result equals the plain O(n·|reps|) scan kept in
/// tests/core_reference.hpp (pinned by tests/test_kernels.cpp).
[[nodiscard]] MiniBallCovering mbc_with_radius(const WeightedSet& pts,
                                               double radius,
                                               const Metric& metric);

/// Algorithm 1, MBCConstruction(P, k, z, ε): radius oracle + greedy cover
/// with mini-ball radius ε·r/ρ.
[[nodiscard]] MiniBallCovering mbc_construct(const WeightedSet& pts, int k,
                                             std::int64_t z, double eps,
                                             const Metric& metric,
                                             const OracleOptions& oracle = {});

/// Oracle-free construction via Gonzalez + packing bound; covering radius is
/// ≤ ε·optk,z(P) by Lemma 6, size ≤ k·⌈4/ε⌉^d + z + 1.
[[nodiscard]] MiniBallCovering mbc_via_gonzalez(const WeightedSet& pts, int k,
                                                std::int64_t z, double eps,
                                                const Metric& metric);

/// Lemma 7 size bound, ρ-generalised: k·(4ρ/ε)^d + z.
[[nodiscard]] double mbc_size_bound(int k, std::int64_t z, double eps,
                                    double rho, int dim);

/// Lemma 4 (union property): concatenates mini-ball coverings of disjoint
/// parts into a covering of the union.
[[nodiscard]] WeightedSet merge_coresets(const std::vector<WeightedSet>& parts);

}  // namespace kc
