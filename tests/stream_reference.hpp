// Reference copies of the streaming summaries, kept as differential
// oracles for the constant-time insert paths in src/stream/:
//
//  * `SlidingWindow` is the structure as it stood with each cluster's
//    members in a plain oldest-first vector (`erase(begin())` on overflow)
//    and the record count recomputed over every level after each insert;
//  * `InsertionOnlyStream` is Algorithm 3 with the linear-scan rep probe:
//    a plain in-order `Metric::dist_key` loop over every rep, and a
//    recompression through `reference::mbc_with_radius_scalar`
//    (core_reference.hpp), so no library covering code (grid, the
//    first-within kernel, `GreedyCover`) is checked against itself.
//
// Both otherwise follow the library's algorithms line for line, apart from
// `inline` and one test: the bootstrap check `r_ == 0.0` is written
// `!(r_ > 0.0)` (the same, as r_ ≥ 0), so the copy needs no lint
// suppression.  The library's versions must match them output for output
// (tests/test_stream_differential.cpp).

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/types.hpp"
#include "core_reference.hpp"
#include "stream/insertion_only.hpp"
#include "util/check.hpp"

namespace kc::stream::reference {

class SlidingWindow {
 public:
  /// Window length W (in arrivals); radius ladder spans [r_min, r_max].
  SlidingWindow(int k, std::int64_t z, double eps, int dim, std::int64_t window,
                double r_min, double r_max, const Metric& metric);

  /// Point arriving at time t (strictly increasing).
  void insert(const Point& p, std::int64_t t);

  struct QueryResult {
    WeightedSet coreset;   ///< covering of the window (weights capped at z+1)
    int level = -1;        ///< ladder level used (−1: no safe level)
    double guess = 0.0;    ///< radius guess 2^ℓ·r_min of that level
    double cover_radius = 0.0;  ///< covering slack of the coreset
  };
  [[nodiscard]] QueryResult query(std::int64_t now) const;

  [[nodiscard]] int levels() const noexcept {
    return static_cast<int>(levels_.size());
  }
  [[nodiscard]] std::size_t cap_per_level() const noexcept { return cap_; }
  /// Stored (point, timestamp) records across all levels right now.
  [[nodiscard]] std::size_t stored_records() const noexcept;
  [[nodiscard]] std::size_t peak_records() const noexcept { return peak_; }

 private:
  struct Member {
    Point p;
    std::int64_t t = 0;
  };
  struct MiniCluster {
    Point rep;
    std::vector<Member> recent;  ///< ≤ z+1, oldest first
    std::int64_t last_join = 0;
  };
  struct Level {
    double radius = 0.0;              ///< join radius ε·2^ℓ·r_min
    double guess = 0.0;               ///< the radius guess 2^ℓ·r_min
    std::vector<MiniCluster> clusters;
    std::int64_t unsafe_until = 0;    ///< queries invalid before this time
  };

  int k_;
  std::int64_t z_;
  double eps_;
  std::int64_t window_;
  Metric metric_;
  std::size_t cap_ = 0;
  std::vector<Level> levels_;
  std::size_t peak_ = 0;
};

inline SlidingWindow::SlidingWindow(int k, std::int64_t z, double eps,
                                    int dim, std::int64_t window, double r_min,
                                    double r_max, const Metric& metric)
    : k_(k), z_(z), eps_(eps), window_(window), metric_(metric) {
  KC_EXPECTS(k >= 1);
  KC_EXPECTS(z >= 0);
  KC_EXPECTS(eps > 0.0 && eps <= 1.0);
  KC_EXPECTS(window >= 1);
  KC_EXPECTS(r_min > 0.0 && r_max >= r_min);
  cap_ = static_cast<std::size_t>(
             static_cast<double>(k) * std::pow(16.0 / eps, dim)) +
         static_cast<std::size_t>(z);
  for (double guess = r_min; guess <= 2.0 * r_max; guess *= 2.0) {
    Level lvl;
    lvl.guess = guess;
    lvl.radius = eps * guess;
    levels_.push_back(std::move(lvl));
  }
}

inline void SlidingWindow::insert(const Point& p, std::int64_t t) {
  for (auto& lvl : levels_) {
    const double key =
        metric_.norm() == Norm::L2 ? lvl.radius * lvl.radius : lvl.radius;
    bool placed = false;
    for (auto& c : lvl.clusters) {
      if (metric_.dist_key(p, c.rep) <= key) {
        c.recent.push_back({p, t});
        if (c.recent.size() > static_cast<std::size_t>(z_) + 1)
          c.recent.erase(c.recent.begin());
        c.last_join = t;
        placed = true;
        break;
      }
    }
    if (!placed) {
      MiniCluster fresh;
      fresh.rep = p;
      fresh.recent.push_back({p, t});
      fresh.last_join = t;
      lvl.clusters.push_back(std::move(fresh));
    }
    // Drop clusters whose every stored member expired — they cannot matter
    // for any current or future window.
    std::erase_if(lvl.clusters, [&](const MiniCluster& c) {
      return c.last_join <= t - window_;
    });
    // Capacity: evict the stalest cluster and mark the level unsafe until
    // the evicted cluster's members have all left the window.
    while (lvl.clusters.size() > cap_) {
      auto stalest = std::min_element(
          lvl.clusters.begin(), lvl.clusters.end(),
          [](const MiniCluster& a, const MiniCluster& b) {
            return a.last_join < b.last_join;
          });
      lvl.unsafe_until =
          std::max(lvl.unsafe_until, stalest->last_join + window_);
      lvl.clusters.erase(stalest);
    }
  }
  peak_ = std::max(peak_, stored_records());
}

inline std::size_t SlidingWindow::stored_records() const noexcept {
  std::size_t total = 0;
  for (const auto& lvl : levels_)
    for (const auto& c : lvl.clusters) total += 1 + c.recent.size();
  return total;
}

inline SlidingWindow::QueryResult SlidingWindow::query(std::int64_t now) const {
  const std::int64_t horizon = now - window_;  // alive ⇔ t > horizon
  for (std::size_t li = 0; li < levels_.size(); ++li) {
    const Level& lvl = levels_[li];
    if (lvl.unsafe_until > now) continue;

    WeightedSet coreset;
    bool ok = true;
    for (const auto& c : lvl.clusters) {
      // Alive members among the stored most-recent z+1.
      std::int64_t alive = 0;
      const Member* newest_alive = nullptr;
      for (const auto& m : c.recent) {
        if (m.t > horizon) {
          ++alive;
          newest_alive = &m;
        }
      }
      if (alive == 0) continue;
      // If every stored member is alive the true count may exceed z+1;
      // clamp — outlier budgets never need more.
      const bool saturated =
          c.recent.size() == static_cast<std::size_t>(z_) + 1 &&
          static_cast<std::size_t>(alive) == c.recent.size();
      const std::int64_t w = saturated ? z_ + 1 : alive;
      // Re-anchor on an alive member so the coreset is a subset of the
      // window (costs ≤ 2·radius of covering slack).
      coreset.push_back({newest_alive->p, std::max<std::int64_t>(w, 1)});
      if (coreset.size() > cap_) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;

    QueryResult res;
    res.coreset = std::move(coreset);
    res.level = static_cast<int>(li);
    res.guess = lvl.guess;
    res.cover_radius = 2.0 * lvl.radius;
    return res;
  }
  return {};
}

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
  [[nodiscard]] const WeightedSet& coreset() const noexcept { return reps_; }

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
  WeightedSet reps_;
  double r_ = 0.0;
  std::size_t peak_ = 0;
  int doublings_ = 0;
};

inline InsertionOnlyStream::InsertionOnlyStream(int k, std::int64_t z,
                                                double eps, int dim,
                                                const Metric& metric,
                                                ThresholdPolicy policy)
    : k_(k), z_(z), eps_(eps), dim_(dim), metric_(metric) {
  KC_EXPECTS(k >= 1);
  KC_EXPECTS(z >= 0);
  KC_EXPECTS(eps > 0.0 && eps <= 1.0);
  threshold_ = stream_threshold(k, z, eps, dim, policy);
  KC_EXPECTS(threshold_ >=
             static_cast<std::size_t>(k) + static_cast<std::size_t>(z) + 1);
}

inline void InsertionOnlyStream::insert_weighted(const Point& p,
                                                 std::int64_t w) {
  KC_EXPECTS(w > 0);
  // Try to assign p to the first representative within (ε/2)·r.  While
  // r == 0 this absorbs exact duplicates only.
  const double join = (eps_ / 2.0) * r_;
  const double join_key = metric_.norm() == Norm::L2 ? join * join : join;
  bool placed = false;
  for (auto& rep : reps_) {
    if (metric_.dist_key(p, rep.p) <= join_key) {
      rep.w += w;
      placed = true;
      break;
    }
  }
  if (!placed) reps_.push_back({p, w});
  peak_ = std::max(peak_, reps_.size());

  // Bootstrap: first sensible lower bound once k+z+1 distinct points exist.
  if (!(r_ > 0.0) &&
      reps_.size() >= static_cast<std::size_t>(k_) +
                          static_cast<std::size_t>(z_) + 1) {
    double min_key = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < reps_.size(); ++i)
      for (std::size_t j = i + 1; j < reps_.size(); ++j)
        min_key = std::min(min_key, metric_.dist_key(reps_[i].p, reps_[j].p));
    const double delta = metric_.key_to_dist(min_key);
    KC_ENSURES(delta > 0.0);  // P* never stores coinciding points
    r_ = delta / 2.0;
  }

  // Recompression loop: double r until the size drops below the threshold.
  while (reps_.size() >= threshold_) {
    KC_EXPECTS(r_ > 0.0);
    r_ *= 2.0;
    ++doublings_;
    reps_ = kc::reference::mbc_with_radius_scalar(reps_, (eps_ / 2.0) * r_,
                                                  metric_)
                .reps;
  }
}

}  // namespace kc::stream::reference
