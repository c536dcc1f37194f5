// Sliding-window k-center with outliers: the De Berg–Monemizadeh–Zhong
// structure [18], whose O((kz/ε^d)·log σ) space the paper's Theorem 30
// proves optimal.  Reconstructed from its interface (PAPER.md,
// "Documented substitutions"):
//
//  * A ladder of levels ℓ with radius guesses 2^ℓ spanning [r_min, r_max]
//    (≈ log σ levels).
//  * Per level, a set of mini-clusters: representative coordinate plus the
//    z+1 most recent members (point + arrival time) and the time of the
//    last join.  A point joins the first mini-cluster whose representative
//    is within ε·2^ℓ, else founds a new one.
//  * Capacity per level: cap = k(16/ε)^d + z mini-clusters.  Overflowing
//    levels evict the mini-cluster with the oldest last-join time and
//    become *unsafe* until that cluster's members have all expired
//    (unsafe_until = evicted.last_join + W) — by then the eviction is
//    provably harmless.  If the guess 2^ℓ ≥ opt(window), the packing bound
//    keeps the level within cap, so the level containing opt is always
//    safe.
//  * Window weights are exact-but-capped: the stored members of a cluster
//    are its most recent, so the number of alive members is known exactly
//    whenever it is ≤ z+1, and any larger count may be clamped to z+1
//    without affecting outlier decisions (budget ≤ z).
//
// query(t) returns, for the smallest safe level with ≤ cap alive clusters,
// the alive representatives with capped weights — a mini-ball covering of
// the window with radius ≤ 2ε·2^ℓ ≤ 4ε·opt (the factor-2 ladder and the
// reanchoring to an alive member each cost a factor ≤ 2; callers absorb
// this constant into ε).
//
// Per-insert cost, per level: the first-hit scan over the level's clusters
// in founding order (one norm dispatch per insert, then the norm-templated
// distance key), O(1) to record the member, and the stalest-cluster search
// on overflow.  A cluster's members live in a (z+1)-slot ring — it grows
// to z+1 slots, then overwrites its oldest — so a join moves no other
// member, and stored_records() is a running count kept on join, founding,
// expiry and eviction instead of a recount of every level.  The expiry
// sweep over a level's clusters runs only when the level's lower bound on
// their last-join times has left the window, since before that no cluster
// can have expired; the sweep resets the bound to the oldest survivor's
// last join.  Each arrival joins or founds one cluster per level, so a
// sweep that runs finds exactly what the per-arrival sweep would.

#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/types.hpp"

namespace kc::stream {

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
  [[nodiscard]] std::size_t stored_records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t peak_records() const noexcept { return peak_; }

 private:
  struct Member {
    Point p;
    std::int64_t t = 0;
  };
  struct MiniCluster {
    Point rep;
    /// The ≤ z+1 most recent members: a ring that grows to z+1 slots, then
    /// overwrites its oldest; read oldest first from `head`.
    std::vector<Member> recent;
    std::size_t head = 0;  ///< oldest slot once the ring is full, else 0
    std::int64_t last_join = 0;
  };
  struct Level {
    double radius = 0.0;              ///< join radius ε·2^ℓ·r_min
    double guess = 0.0;               ///< the radius guess 2^ℓ·r_min
    std::vector<MiniCluster> clusters;
    std::int64_t unsafe_until = 0;    ///< queries invalid before this time
    /// A lower bound on every cluster's last_join (none yet: the lowest
    /// time), so no cluster can have expired while it is alive.
    std::int64_t oldest_join = std::numeric_limits<std::int64_t>::min();
  };

  /// insert() for one norm.
  template <Norm N>
  void insert_with(const Point& p, std::int64_t t);

  int k_;
  std::int64_t z_;
  double eps_;
  std::int64_t window_;
  Metric metric_;
  std::size_t cap_ = 0;
  std::vector<Level> levels_;
  std::size_t records_ = 0;  ///< stored_records(), kept as clusters change
  std::size_t peak_ = 0;
};

}  // namespace kc::stream
