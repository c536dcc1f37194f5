// Baseline: McCutchen–Khuller streaming k-center with outliers [34]
// ((4+ε)-approximation, O(kz/ε) stored points, general metric spaces).
//
// Reconstruction of their phase-doubling structure (PAPER.md, "Documented
// substitutions"): we run L = ⌈log2(1+1)/log2(1+ε)⌉-style parallel
// instances whose radius ladders are offset by (1+ε)^g, the classic trick
// that turns a doubling algorithm's factor-2 guess granularity into (1+ε).
// Each instance maintains:
//
//  * ≤ k + z cluster anchors, pairwise > 2r apart (if more existed, the
//    pigeonhole argument shows opt > r and the instance doubles r);
//  * per anchor, the z+1 most recent support points (exact points — this is
//    what makes the space Θ(kz) rather than Θ(k+z); with only aggregated
//    weights the structure would be a coreset, which is the paper's
//    improvement) plus an overflow weight;
//  * on doubling, all stored points are re-clustered at the new radius.
//
// A query solves k-center-with-outliers (Charikar) on the stored weighted
// points of the viable instance with the smallest radius.

#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace kc::stream {

class McCutchenKhuller {
 public:
  /// Instances at this ε, one per offset (1+ε)^g < 2: ⌈ln 2 / ln(1+ε)⌉,
  /// as a double (+∞ once 1+ε rounds to 1).  At most kMaxLadder (ε ≳ 1e-5).
  [[nodiscard]] static double ladder_size(double eps);
  static constexpr double kMaxLadder = 65536;

  McCutchenKhuller(int k, std::int64_t z, double eps, const Metric& metric);

  void insert(const Point& p);

  /// Solution extracted from the best instance (centers + radius evaluated
  /// on the stored summary; callers evaluate on ground truth for quality).
  [[nodiscard]] Solution query() const;

  /// Peak stored points over the stream so far (the measured O(kz/ε)
  /// space).
  [[nodiscard]] std::size_t peak_points() const noexcept { return peak_; }
  [[nodiscard]] int instances() const noexcept {
    return static_cast<int>(instances_.size());
  }

 private:
  struct Cluster {
    Point anchor;
    /// ≤ z+1 most recent members; weights > 1 appear when re-clustering
    /// folds an overflow weight back in.
    std::vector<WeightedPoint> support;
    std::int64_t overflow = 0;  ///< members beyond the stored support
  };
  struct Instance {
    double r = 0.0;               ///< current radius guess (0 = warm-up)
    std::vector<Cluster> clusters;
  };

  void insert_into(Instance& inst, const Point& p, std::int64_t weight);
  void maybe_double(Instance& inst);
  [[nodiscard]] WeightedSet stored_weighted(const Instance& inst) const;
  /// Stored points across all instances right now.
  [[nodiscard]] std::size_t stored_points() const noexcept;

  int k_;
  std::int64_t z_;
  double eps_;
  Metric metric_;
  std::vector<Instance> instances_;
  std::size_t peak_ = 0;
};

}  // namespace kc::stream
