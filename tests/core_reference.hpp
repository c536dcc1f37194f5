// Reference copies of library passes, kept as differential oracles: each is
// the plain scalar loop over `Metric::dist_key` (no kernels, no grid) that
// the library's fast path must match output for output.
//
//  * `mbc_with_radius_scalar` — the greedy mini-ball covering pass
//    (`mbc_with_radius`, core/mbc.cpp): each point joins the first
//    representative within the radius, in rep order
//    (tests/test_kernels.cpp).
//  * `charikar_run_scalar` — the O(k·n²) Charikar greedy rescan
//    (`charikar_run`, core/charikar.cpp; tests/test_kernels.cpp).
//  * `nearest_center_keys_aos` / `radius_with_outliers_sorted` /
//    `classify_aos` — the AoS nearest-center sweep, the sort-and-walk
//    outlier objective and the labelling loop that core/cost.cpp's sweep
//    and (z+1)-tail selector replaced (tests/test_cost.cpp).
//  * `solve_kcenter_outliers_inline` — the end-of-pipeline solver with its
//    own copy of the Auto oracle's decision (above 600 points, and when
//    the τ(γ = 0.5) budget is below n, Charikar on a Gonzalez τ-summary),
//    as `solve_kcenter_outliers` (core/solver.cpp) was written before it
//    read the radius oracle's working set (tests/test_coreset.cpp).
//  * `gonzalez_full` — the full-scan farthest-point traversal: every new
//    center relaxes all n keys through the chunk-parallel relax kernel, as
//    `traverse` (core/gonzalez.cpp) did before it pruned the clusters a
//    new center cannot reach (tests/test_gonzalez.cpp).
//  * `even_sorted_partition` — the EvenSorted split as a comparison sort:
//    a stable sort of the indices by x (so −0.0 and +0.0 tie), then equal
//    contiguous blocks, which `mpc::partition_points` (mpc/partition.cpp)
//    computes with a radix sort of x's key bits (tests/test_mpc_simulator.cpp).
//  * `GridIndexMap` — the hash grid on a node-based `std::unordered_map`
//    from the full cell key to its member list, as `GridIndex`
//    (geometry/grid_index.hpp) stood before its flat open-addressing table
//    (tests/test_kernels.cpp).

#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/charikar.hpp"
#include "core/cost.hpp"
#include "core/gonzalez.hpp"
#include "core/mbc.hpp"
#include "core/radius_oracle.hpp"
#include "core/solver.hpp"
#include "core/types.hpp"
#include "geometry/kernels.hpp"
#include "geometry/point.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace kc::reference {

inline MiniBallCovering mbc_with_radius_scalar(const WeightedSet& pts,
                                               double radius,
                                               const Metric& metric) {
  KC_EXPECTS(radius >= 0.0);
  MiniBallCovering out;
  out.cover_radius = radius;
  out.assignment.reserve(pts.size());
  const double key = metric.dist_to_key(radius);

  for (const auto& wp : pts) {
    KC_EXPECTS(wp.w > 0);
    bool placed = false;
    for (std::size_t r = 0; r < out.reps.size(); ++r) {
      if (metric.dist_key(wp.p, out.reps[r].p) <= key) {
        out.reps[r].w += wp.w;
        out.assignment.push_back(static_cast<std::uint32_t>(r));
        placed = true;
        break;
      }
    }
    if (!placed) {
      out.assignment.push_back(static_cast<std::uint32_t>(out.reps.size()));
      out.reps.push_back(wp);
    }
  }
  return out;
}

inline CharikarRun charikar_run_scalar(const WeightedSet& pts, int k,
                                       std::int64_t z, double r,
                                       const Metric& metric) {
  KC_EXPECTS(k >= 1);
  CharikarRun out;
  const std::size_t n = pts.size();
  std::vector<bool> covered(n, false);
  std::int64_t uncovered_w = 0;
  for (const auto& wp : pts) uncovered_w += wp.w;

  // dist_key thresholds: compare squared distances under L2.
  const double r_key = metric.dist_to_key(r);
  const double r3_key = metric.dist_to_key(3.0 * r);

  for (int t = 0; t < k && uncovered_w > z; ++t) {
    // Pick the point whose r-ball covers the most uncovered weight.
    std::int64_t best_w = -1;
    std::size_t best_i = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::int64_t wsum = 0;
      for (std::size_t j = 0; j < n; ++j) {
        if (covered[j]) continue;
        if (metric.dist_key(pts[i].p, pts[j].p) <= r_key) wsum += pts[j].w;
      }
      if (wsum > best_w) {
        best_w = wsum;
        best_i = i;
      }
    }
    out.centers.push_back(pts[best_i].p);
    // Remove everything inside the expanded ball b(best_i, 3r).
    for (std::size_t j = 0; j < n; ++j) {
      if (covered[j]) continue;
      if (metric.dist_key(pts[best_i].p, pts[j].p) <= r3_key) {
        covered[j] = true;
        uncovered_w -= pts[j].w;
      }
    }
  }
  out.uncovered = uncovered_w;
  out.success = uncovered_w <= z;
  return out;
}

/// Nearest-center key of every point, centers scanned in ascending order.
inline std::vector<double> nearest_center_keys_aos(const WeightedSet& pts,
                                                   const PointSet& centers,
                                                   const Metric& metric) {
  std::vector<double> out;
  out.reserve(pts.size());
  for (const auto& wp : pts) {
    double best = std::numeric_limits<double>::infinity();
    for (const auto& c : centers) {
      const double key = metric.dist_key(wp.p, c);
      if (key < best) best = key;
    }
    out.push_back(best);
  }
  return out;
}

/// The outlier objective by a full sort: pair distances with weights, sort
/// descending, and walk from the farthest point — once the accumulated
/// weight would exceed z, the current point must be covered.
inline double radius_with_outliers_sorted(const WeightedSet& pts,
                                          const PointSet& centers,
                                          std::int64_t z,
                                          const Metric& metric) {
  const std::vector<double> keys =
      nearest_center_keys_aos(pts, centers, metric);
  std::vector<std::pair<double, std::int64_t>> dw;
  dw.reserve(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i)
    dw.emplace_back(metric.key_to_dist(keys[i]), pts[i].w);
  std::sort(dw.begin(), dw.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::int64_t acc = 0;
  for (const auto& [d, w] : dw) {
    if (acc + w > z) return d;
    acc += w;
  }
  return 0.0;  // total weight ≤ z: everything may be an outlier
}

/// `classify` with its own AoS argmin loop.
inline Labeling classify_aos(const WeightedSet& pts, const Solution& sol,
                             const Metric& metric) {
  Labeling out;
  const double limit = sol.radius * (1.0 + 1e-12) + 1e-300;
  for (const auto& wp : pts) {
    int best = -1;
    double best_key = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < sol.centers.size(); ++c) {
      const double key = metric.dist_key(wp.p, sol.centers[c]);
      if (key < best_key) {
        best_key = key;
        best = static_cast<int>(c);
      }
    }
    if (metric.key_to_dist(best_key) > limit) {
      out.labels.push_back(-1);
      out.outlier_weight += wp.w;
    } else {
      out.labels.push_back(best);
    }
  }
  return out;
}

/// Charikar on `pts`, or above 600 points on its Gonzalez τ-summary when
/// τ = summary_center_budget(k, z, 0.5, d) < n; the centers are evaluated
/// on `pts`.
inline Solution solve_kcenter_outliers_inline(const WeightedSet& pts, int k,
                                              std::int64_t z,
                                              const Metric& metric) {
  KC_EXPECTS(!pts.empty());
  const WeightedSet* work = &pts;
  WeightedSet summary;
  if (pts.size() > 600) {
    const int dim = pts.front().p.dim();
    const std::int64_t tau = summary_center_budget(k, z, 0.5, dim);
    if (static_cast<std::int64_t>(pts.size()) > tau) {
      const GonzalezResult g = gonzalez(pts, static_cast<int>(tau), metric);
      summary = gonzalez_summary(pts, g);
      work = &summary;
    }
  }
  return evaluate(pts, charikar_oracle(*work, k, z, metric).centers, z,
                  metric);
}

/// Full-scan Gonzalez: after each center, `on_prefix` (when set) sees the
/// traversal so far.  Each step relaxes every point's nearest-center key
/// against the new center and moves to the farthest point under the
/// relaxed keys (first max wins).
inline GonzalezResult gonzalez_full(
    const WeightedSet& pts, int max_centers, const Metric& metric,
    ThreadPool* pool = nullptr, const kernels::PointBuffer* buffer = nullptr,
    const std::function<void(const GonzalezResult&)>& on_prefix = {}) {
  KC_EXPECTS(max_centers >= 1);
  if (pts.empty()) return {};
  const std::size_t n = pts.size();
  std::vector<double> key(n, std::numeric_limits<double>::infinity());
  kernels::PointBuffer local;
  const kernels::PointBuffer& buf = kernels::mirror_or_pack(pts, buffer, local);
  return kernels::with_norm(metric.norm(), [&]<Norm N>() {
    GonzalezResult res;
    res.assignment.assign(n, 0);
    std::size_t next = 0;
    for (int t = 0; t < max_centers && static_cast<std::size_t>(t) < n; ++t) {
      res.center_indices.push_back(next);
      const kernels::RelaxResult rr = kernels::relax_min_keys_parallel<N>(
          buf, pts[next].p.coords().data(), static_cast<std::uint32_t>(t),
          key.data(), res.assignment.data(), pool);
      const double radius = metric.key_to_dist(rr.far_key);
      res.delta.push_back(radius);
      next = rr.far_idx;
      if (on_prefix) on_prefix(res);
      if (rr.far_key <= 0.0) break;  // every point is a selected center
    }
    return res;
  });
}

/// Machine r's points under EvenSorted: the indices stably sorted by first
/// coordinate (`<` ties −0.0 with +0.0), then machine ⌊rank·m/n⌋.
inline std::vector<WeightedSet> even_sorted_partition(const WeightedSet& pts,
                                                      int m) {
  KC_EXPECTS(m >= 1);
  const std::size_t n = pts.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return pts[a].p[0] < pts[b].p[0];
                   });
  std::vector<WeightedSet> parts(static_cast<std::size_t>(m));
  for (std::size_t rank = 0; rank < n; ++rank)
    parts[rank * static_cast<std::size_t>(m) / n].push_back(pts[order[rank]]);
  return parts;
}

/// Same API and enumeration order as `GridIndex`: cells keyed by the
/// floor(coord / width) per axis clamped to ±2^61, visited by the same
/// odometer over the (2·reach+1)^d offset box, each listing its points in
/// insertion order.
class GridIndexMap {
 public:
  GridIndexMap(double cell_width, int dim)
      : width_(cell_width), dim_(dim), cells_(0, CellKeyHash{dim}) {
    KC_EXPECTS(cell_width > 0.0);
    KC_EXPECTS(dim >= 1 && dim <= Point::kMaxDim);
  }

  void insert(const double* coords, std::uint32_t idx) {
    cells_[key_for(coords)].push_back(idx);
  }

  template <typename F>
  void for_each_candidate(const double* q, int reach, F&& f) const {
    CellKey key = key_for(q);
    const CellKey base = key;
    std::array<int, Point::kMaxDim> off{};
    for (int j = 0; j < dim_; ++j) {
      off[static_cast<std::size_t>(j)] = -reach;
      key.c[static_cast<std::size_t>(j)] =
          base.c[static_cast<std::size_t>(j)] - reach;
    }
    for (;;) {
      const auto it = cells_.find(key);
      if (it != cells_.end())
        f(std::span<const std::uint32_t>(it->second));
      int j = 0;
      for (; j < dim_; ++j) {
        const auto sj = static_cast<std::size_t>(j);
        if (off[sj] < reach) {
          ++off[sj];
          key.c[sj] = base.c[sj] + off[sj];
          break;
        }
        off[sj] = -reach;
        key.c[sj] = base.c[sj] - reach;
      }
      if (j == dim_) break;
    }
  }

 private:
  struct CellKey {
    std::array<std::int64_t, Point::kMaxDim> c{};

    friend bool operator==(const CellKey& a, const CellKey& b) noexcept {
      return a.c == b.c;
    }
  };

  struct CellKeyHash {
    int dim = Point::kMaxDim;

    std::size_t operator()(const CellKey& k) const noexcept {
      std::uint64_t h = 0x9e3779b97f4a7c15ULL;
      for (int j = 0; j < dim; ++j) {
        std::uint64_t x =
            static_cast<std::uint64_t>(k.c[static_cast<std::size_t>(j)]) + h;
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        h = x;
      }
      return static_cast<std::size_t>(h);
    }
  };

  [[nodiscard]] CellKey key_for(const double* coords) const noexcept {
    constexpr double kClamp = 2305843009213693952.0;  // 2^61
    CellKey key;
    for (int j = 0; j < dim_; ++j) {
      double cell = std::floor(coords[j] / width_);
      if (cell > kClamp) cell = kClamp;
      if (cell < -kClamp) cell = -kClamp;
      key.c[static_cast<std::size_t>(j)] = static_cast<std::int64_t>(cell);
    }
    return key;
  }

  double width_;
  int dim_;
  std::unordered_map<CellKey, std::vector<std::uint32_t>, CellKeyHash> cells_;
};

}  // namespace kc::reference
