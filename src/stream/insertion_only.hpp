// Algorithm 3: the space-optimal insertion-only streaming coreset
// (paper §4.3, Theorem 18).
//
// Maintains a lower bound r ≤ optk,z(P(t)) and a weighted set P* such that
// every point seen so far is within ε·r of some representative:
//
//  * a new point joins a representative within (ε/2)·r, else becomes one;
//  * r starts at 0; once |P*| = k+z+1, r ← Δ/2 (half the min pairwise
//    distance — two of those points share an optimal ball, so Δ/2 ≤ opt);
//  * whenever |P*| ≥ k(16/ε)^d + z the packing bound (Lemma 6) proves
//    2r ≤ opt, so r doubles and P* is recompressed with UpdateCoreset
//    (Algorithm 4) at radius (ε/2)·r.  Reassignment errors telescope:
//    Σ (ε/2)·r/2^i ≤ ε·r (Lemma 16).
//
// Per-insert cost: one add to a GreedyCover (core/mbc.hpp) at the join
// radius (ε/2)·r — the probe for the lowest-index rep within it, plus an
// append or a weight bump; recompressions are amortized over the arrivals
// that filled P*.  A recompression re-covers P* with a fresh cover at the
// doubled join radius; the bootstrap and an absorb only change the radius
// of the cover in place.
//
// Space: |P*| ≤ k(16/ε)^d + z — optimal by the paper's Theorem 11 lower
// bound.  The same class also implements the Ceccarello-et-al.-style
// baseline [11] whose recompression threshold is (k+z)(16/ε)^d, i.e. the
// multiplicative z/ε^d space the paper's threshold improves to an additive
// z (Table 1 rows "insertion-only").

#pragma once

#include <cstdint>
#include <string>

#include "core/mbc.hpp"
#include "core/types.hpp"

namespace kc::stream {

enum class ThresholdPolicy : std::uint8_t {
  Ours,        ///< k(16/ε)^d + z   (Algorithm 3)
  Ceccarello,  ///< (k+z)(16/ε)^d   (baseline shape, multiplicative z)
};

/// Parses "ours" / "ceccarello"; returns false (out untouched) otherwise.
[[nodiscard]] bool parse_threshold_policy(const std::string& name,
                                          ThresholdPolicy* out) noexcept;

class InsertionOnlyStream {
 public:
  InsertionOnlyStream(int k, std::int64_t z, double eps, int dim,
                      const Metric& metric,
                      ThresholdPolicy policy = ThresholdPolicy::Ours);

  /// Handles the arrival of one (unit-weight) point.
  void insert(const Point& p) { insert_weighted(p, 1); }

  /// Weighted arrival (the paper's weighted problem: positive integer
  /// weights; the outlier budget z bounds outlier *weight*).
  void insert_weighted(const Point& p, std::int64_t w);

  /// Current coreset P*(t) — an (ε,k,z)-mini-ball covering of P(t).
  [[nodiscard]] const WeightedSet& coreset() const noexcept {
    return cover_.reps();
  }

  /// Current lower-bound radius r ≤ optk,z(P(t)).
  [[nodiscard]] double r() const noexcept { return r_; }

  /// Recompression threshold for |P*|.
  [[nodiscard]] std::size_t threshold() const noexcept { return threshold_; }

  /// Largest |P*| ever reached (the measured space; ≤ threshold()).
  [[nodiscard]] std::size_t peak_size() const noexcept { return peak_; }

  /// Peak storage in words (points are d+1 words; r and counters O(1)).
  [[nodiscard]] std::size_t peak_words() const noexcept {
    return peak_ * static_cast<std::size_t>(dim_ + 1) + 4;
  }

  /// Number of r-doublings performed (diagnostics).
  [[nodiscard]] int doublings() const noexcept { return doublings_; }

 private:
  int k_;
  std::int64_t z_;
  double eps_;
  int dim_;
  Metric metric_;
  std::size_t threshold_;
  GreedyCover cover_;  ///< P*, at join radius (ε/2)·r
  double r_ = 0.0;
  std::size_t peak_ = 0;
  int doublings_ = 0;
};

/// The |P*| threshold for a policy: k(16/ε)^d + z or (k+z)(16/ε)^d.
[[nodiscard]] std::size_t stream_threshold(int k, std::int64_t z, double eps,
                                           int dim, ThresholdPolicy policy);

}  // namespace kc::stream
