// Workload generators with certified optimum brackets.
//
// Computing optk,z exactly is infeasible at benchmark scale, so the
// experiment harness plants instances whose optimum is certified to lie in
// a bracket [opt_lo, opt_hi]:
//
//  * k clusters of radius ≤ R, cluster centers pairwise ≥ `separation`·R
//    apart, each holding ≥ z+1 points;
//  * exactly z outlier points, ≥ `separation`·R away from every cluster and
//    from each other.
//
// opt_hi = max over clusters of the distance from the planted center to its
// farthest member (covering the clusters with the planted centers and
// declaring the planted outliers leaves outlier weight exactly z).
// opt_lo = max over clusters of half a certified diameter lower bound: in
// any solution of radius < separation·R/2 each ball touches one cluster
// only, the z planted outliers exhaust the budget, so every cluster must be
// fully covered by a single ball of radius ≥ diam/2.
//
// Tests and benches assert algorithm guarantees against these brackets.

#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "geometry/grid.hpp"
#include "util/rng.hpp"

namespace kc {

/// Where the z planted outliers go.
enum class OutlierPattern : std::uint8_t {
  Spread,  ///< pairwise ≥ separation·R apart along the negative first axis
  Burst,   ///< one tight clump of diameter ≤ 2R (adversarial: looks like a
           ///< (z)-point cluster, but declaring it a cluster strands a real
           ///< cluster of ≥ z+1 points, so the bracket stays certified)
};

struct PlantedConfig {
  std::size_t n = 1000;   ///< total points incl. outliers
  int k = 3;
  std::int64_t z = 10;
  int dim = 2;
  double cluster_radius = 1.0;
  double separation = 40.0;  ///< × cluster_radius between cluster centers
  Norm norm = Norm::L2;
  std::uint64_t seed = 1;
  /// Cluster size skew: 0 = even split, 1 = strongly skewed (first cluster
  /// dominates).  Exercises the adversarial-distribution MPC cases.
  double skew = 0.0;
  /// Explicit per-cluster sizes (k entries, each ≥ z+1, summing to n − z).
  /// Empty = derive the split from `skew`.  Lets adversarial workloads
  /// plant heavy-tailed cluster-mass distributions exactly.
  std::vector<std::size_t> cluster_sizes;
  /// Outlier placement; see `OutlierPattern`.
  OutlierPattern outliers = OutlierPattern::Spread;
  /// Near-duplicate flood: every sampled cluster point is replicated into
  /// `duplicates` copies jittered by ≤ 1e-9·R (1 = no duplication).  All
  /// copies carry unit weight; the bracket is certified over the actual
  /// points, so it stays valid.
  std::size_t duplicates = 1;
};

struct PlantedInstance {
  WeightedSet points;             ///< unit weights; clusters then outliers
  /// Canonical SoA mirror of `points` (same order) — what the engine
  /// pipelines and kernels consume; `points` is the AoS boundary view.
  kernels::PointBuffer buffer;
  PointSet planted_centers;
  std::vector<std::size_t> outlier_indices;  ///< indices into `points`
  double opt_lo = 0.0;
  double opt_hi = 0.0;
  PlantedConfig config;
};

/// Builds a planted instance.  Requires n ≥ k·(z+1) + z so that every
/// cluster can hold ≥ z+1 points.
[[nodiscard]] PlantedInstance make_planted(const PlantedConfig& cfg);

/// Time-ordered drifting-centers instance: cluster c's *emission* center
/// moves along a per-cluster axis by 4·R over the course of the stream, and
/// points are emitted in time order (clusters round-robin, outliers
/// interspersed evenly) with NO shuffle — early prefixes see a different
/// distribution than late ones, the adversarial regime for one-pass
/// summaries whose thresholds are calibrated on a prefix.  The planted
/// center of each cluster is its drift midpoint; every member stays within
/// 3·R of it (2·R drift half-length + R sample radius), so with the default
/// separation of 40·R the usual bracket certificate applies unchanged.
/// `cfg.order`-style shuffling must NOT be layered on top (the drift is the
/// point); consume it with an empty arrival order.
[[nodiscard]] PlantedInstance make_drifting(const PlantedConfig& cfg);

/// Discretizes a real instance onto the integer grid [Δ]^dim: coordinates
/// scaled so the bounding box fits, then rounded.  Returns grid points in
/// the same order.  Collisions (distinct points mapping to one cell of G_0)
/// are allowed — the dynamic sketches count multiplicities.
[[nodiscard]] std::vector<GridPoint> discretize(const WeightedSet& pts,
                                                std::int64_t delta);

}  // namespace kc
