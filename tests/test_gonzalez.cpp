#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/brute_force.hpp"
#include "core/gonzalez.hpp"
#include "core_reference.hpp"
#include "test_support.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace kc {
namespace {

const Metric kL2{Norm::L2};

// The selected centers' coordinates, in selection order.
PointSet centers_of(const GonzalezResult& g, const WeightedSet& pts) {
  PointSet out;
  for (const auto i : g.center_indices) out.push_back(pts[i].p);
  return out;
}

TEST(Gonzalez, SelectsRequestedCenters) {
  const WeightedSet pts = with_unit_weights(
      {Point{0.0}, Point{10.0}, Point{20.0}, Point{30.0}});
  const GonzalezResult g = gonzalez(pts, 3, kL2);
  EXPECT_EQ(g.center_indices.size(), 3u);
  EXPECT_EQ(g.delta.size(), 3u);
}

TEST(Gonzalez, DeltaNonIncreasing) {
  const auto inst = testing::tiny_planted(3, 4, 2, 17);
  const GonzalezResult g = gonzalez(inst.points, 20, kL2);
  for (std::size_t t = 1; t < g.delta.size(); ++t)
    EXPECT_LE(g.delta[t], g.delta[t - 1] + 1e-12);
}

TEST(Gonzalez, CentersArePairwiseSeparated) {
  // Selected centers must be pairwise ≥ δ_final apart.
  const auto inst = testing::tiny_planted(3, 2, 2, 5);
  const GonzalezResult g = gonzalez(inst.points, 12, kL2);
  const double delta = g.delta.back();
  const PointSet cs = centers_of(g, inst.points);
  for (std::size_t i = 0; i < cs.size(); ++i)
    for (std::size_t j = i + 1; j < cs.size(); ++j)
      EXPECT_GE(kL2.dist(cs[i], cs[j]), delta - 1e-9);
}

TEST(Gonzalez, AssignmentIsNearestSelected) {
  const auto inst = testing::tiny_planted(2, 0, 2, 11);
  const GonzalezResult g = gonzalez(inst.points, 6, kL2);
  const PointSet cs = centers_of(g, inst.points);
  for (std::size_t i = 0; i < inst.points.size(); ++i) {
    const double assigned = kL2.dist(inst.points[i].p, cs[g.assignment[i]]);
    for (const auto& c : cs)
      EXPECT_LE(assigned, kL2.dist(inst.points[i].p, c) + 1e-9);
  }
}

TEST(Gonzalez, TwoApproxOfKCenterNoOutliers) {
  // δ_k ≤ 2·opt_k (classic guarantee), checked against brute force.
  const auto inst = testing::tiny_planted(3, 0, 1, 23);
  WeightedSet small(inst.points.begin(),
                    inst.points.begin() + std::min<std::size_t>(
                                              inst.points.size(), 14));
  const int k = 3;
  const GonzalezResult g = gonzalez(small, k, kL2);
  const double opt = brute_force_radius(small, k, 0, kL2);
  EXPECT_LE(g.delta.back(), 2.0 * opt + 1e-9);
}

TEST(Gonzalez, SummaryPreservesWeight) {
  auto inst = testing::tiny_planted(3, 4, 2, 29);
  inst.points[0].w = 7;  // exercise non-unit weights
  const GonzalezResult g = gonzalez(inst.points, 9, kL2);
  const WeightedSet s = gonzalez_summary(inst.points, g);
  EXPECT_EQ(total_weight(s), total_weight(inst.points));
  EXPECT_EQ(s.size(), g.center_indices.size());
}

TEST(Gonzalez, SummaryCoveringRadiusIsDelta) {
  const auto inst = testing::tiny_planted(2, 2, 2, 31);
  const GonzalezResult g = gonzalez(inst.points, 8, kL2);
  const WeightedSet s = gonzalez_summary(inst.points, g);
  const double delta = g.delta.back();
  for (std::size_t i = 0; i < inst.points.size(); ++i) {
    EXPECT_LE(kL2.dist(inst.points[i].p, s[g.assignment[i]].p), delta + 1e-9);
  }
}

TEST(Gonzalez, DegenerateAllEqualPoints) {
  WeightedSet pts(5, WeightedPoint{Point{1.0, 1.0}, 1});
  const GonzalezResult g = gonzalez(pts, 3, kL2);
  // All points coincide: one center suffices, radius 0, early stop.
  EXPECT_EQ(g.center_indices.size(), 1u);
  EXPECT_DOUBLE_EQ(g.delta.back(), 0.0);
}

TEST(Gonzalez, PackingBoundDrivesDeltaBelowEpsOpt) {
  // With τ = k(4/ε)^d + z + 1 centers, δ_τ ≤ ε·opt (Lemma 6 packing).
  const auto inst = testing::tiny_planted(2, 3, 1, 37);
  const double eps = 1.0;
  const int dim = 1;
  const auto tau = static_cast<int>(
      2 * std::pow(std::ceil(4.0 / eps), dim) + 3 + 1);
  const GonzalezResult g = gonzalez(inst.points, tau, kL2);
  // opt ≥ opt_lo from the planted bracket.
  EXPECT_LE(g.delta.back(), eps * inst.opt_hi + 1e-9);
}

// ---- gonzalez_prefixes: one checkpointed traversal ----------------------

// Points on the integer grid [0, side)^dim with weights 1..5: repeated
// points and tied distances exercise first-max-wins and the strict-<
// reassignment.
WeightedSet grid_points(std::size_t n, std::uint64_t seed, int dim = 2,
                        std::uint64_t side = 40) {
  Rng rng(seed);
  WeightedSet pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Point p(dim);
    for (int j = 0; j < dim; ++j) p[j] = static_cast<double>(rng.uniform(side));
    pts.push_back({p, 1 + static_cast<std::int64_t>(rng.uniform(5))});
  }
  return pts;
}

std::vector<int> random_budgets(Rng& rng, int max_budget) {
  std::vector<int> budgets(1 + rng.uniform(6));
  for (int& b : budgets)
    b = 1 + static_cast<int>(
                rng.uniform(static_cast<std::uint64_t>(max_budget)));
  return budgets;
}

void expect_same_prefix(const GonzalezPrefix& got, const WeightedSet& want,
                        double want_delta) {
  ASSERT_EQ(got.summary.size(), want.size());
  for (std::size_t c = 0; c < want.size(); ++c) {
    EXPECT_EQ(got.summary[c].p, want[c].p) << "center " << c;
    EXPECT_EQ(got.summary[c].w, want[c].w) << "center " << c;
  }
  EXPECT_EQ(got.delta, want_delta);
}

// Every checkpoint equals a fresh traversal to its budget, word for word.
void expect_prefixes_match(const WeightedSet& pts,
                           const std::vector<int>& budgets,
                           const Metric& metric, ThreadPool* pool) {
  const std::vector<GonzalezPrefix> prefixes =
      gonzalez_prefixes(pts, budgets, metric, pool);
  ASSERT_EQ(prefixes.size(), budgets.size());
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    SCOPED_TRACE("budget " + std::to_string(budgets[i]));
    const GonzalezResult g = gonzalez(pts, budgets[i], metric, pool);
    expect_same_prefix(prefixes[i], gonzalez_summary(pts, g), g.delta.back());
  }
}

TEST(GonzalezPrefixes, MatchFreshTraversalsInEveryNorm) {
  Rng rng(2024);
  for (const Norm norm : {Norm::L1, Norm::L2, Norm::Linf}) {
    const Metric metric(norm);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("norm " + std::to_string(static_cast<int>(norm)) +
                   " seed " + std::to_string(seed));
      const WeightedSet pts = grid_points(1500, seed);
      expect_prefixes_match(pts, random_budgets(rng, 250), metric, nullptr);
    }
  }
}

TEST(GonzalezPrefixes, MatchFreshTraversalsOnEightThreadPool) {
  // Above the kernels' parallel grain, so the pool really splits the sweep.
  ThreadPool pool(8);
  Rng rng(77);
  const WeightedSet pts = grid_points(20000, 9);
  for (const Norm norm : {Norm::L1, Norm::L2, Norm::Linf}) {
    SCOPED_TRACE("norm " + std::to_string(static_cast<int>(norm)));
    const Metric metric(norm);
    const std::vector<int> budgets = random_budgets(rng, 60);
    expect_prefixes_match(pts, budgets, metric, &pool);
    // …and the pooled checkpoints equal the sequential ones.
    const auto seq = gonzalez_prefixes(pts, budgets, metric, nullptr);
    const auto par = gonzalez_prefixes(pts, budgets, metric, &pool);
    for (std::size_t i = 0; i < budgets.size(); ++i)
      expect_same_prefix(par[i], seq[i].summary, seq[i].delta);
  }
}

TEST(GonzalezPrefixes, AllEqualPointsStopEarly) {
  const WeightedSet pts(7, WeightedPoint{Point{2.0, -1.0}, 3});
  const std::vector<int> budgets{4, 1, 9};
  expect_prefixes_match(pts, budgets, kL2, nullptr);
  for (const auto& prefix : gonzalez_prefixes(pts, budgets, kL2)) {
    ASSERT_EQ(prefix.summary.size(), 1u);  // one center, radius 0
    EXPECT_EQ(prefix.summary.front().w, 21);
    EXPECT_EQ(prefix.delta, 0.0);
  }
}

TEST(GonzalezPrefixes, BudgetAboveInputSize) {
  // Distinct points, so the traversal runs until it has every point.
  WeightedSet pts;
  for (int i = 0; i < 12; ++i)
    pts.push_back({Point{static_cast<double>(i * i), 0.5 * i}, 1 + i % 3});
  const std::vector<int> budgets{12, 40, 5, 13};
  expect_prefixes_match(pts, budgets, kL2, nullptr);
  const auto prefixes = gonzalez_prefixes(pts, budgets, kL2);
  EXPECT_EQ(prefixes[1].summary.size(), pts.size());
  EXPECT_EQ(prefixes[1].delta, 0.0);
  // Grid points with duplicates stop at radius 0 before n centers.
  expect_prefixes_match(grid_points(30, 3), {20, 30, 64}, kL2, nullptr);
}

TEST(GonzalezPrefixes, EmptyInputsGiveEmptyPrefixes) {
  EXPECT_TRUE(gonzalez_prefixes(grid_points(10, 1), {}, kL2).empty());
  const auto prefixes =
      gonzalez_prefixes(WeightedSet{}, std::vector<int>{3}, kL2);
  ASSERT_EQ(prefixes.size(), 1u);
  EXPECT_TRUE(prefixes.front().summary.empty());
  EXPECT_EQ(prefixes.front().delta, 0.0);
}

// ---- Pruned traversal vs the full scan ----------------------------------
//
// `gonzalez` skips the key bands a new center cannot reach; the full scan
// (reference::gonzalez_full) relaxes every point.  They must agree bit for
// bit: centers, delta and assignment, at every prefix and thread count.
// Too small a skip factor (2 instead of 4 under L2, 1 instead of 2 under
// L1/L∞) skips points that do move and fails these cases.

void expect_same_traversal(const GonzalezResult& got,
                           const GonzalezResult& want) {
  ASSERT_EQ(got.center_indices, want.center_indices);
  ASSERT_EQ(got.delta.size(), want.delta.size());
  for (std::size_t t = 0; t < want.delta.size(); ++t)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.delta[t]),
              std::bit_cast<std::uint64_t>(want.delta[t]))
        << "delta[" << t << "]";
  EXPECT_EQ(got.assignment, want.assignment);
}

// Planted clusters and outliers (unit-weight points re-weighted 1..5).
// The clusters are L2 balls whatever the norm the traversal runs under (the
// generator's L1 ball sampler is slow at d = 8).
WeightedSet planted(std::size_t n, int dim, OutlierPattern outliers,
                    std::uint64_t seed) {
  PlantedConfig cfg;
  cfg.n = n;
  cfg.k = 4;
  cfg.z = 12;
  cfg.dim = dim;
  cfg.seed = seed;
  cfg.outliers = outliers;
  cfg.skew = 0.5;
  WeightedSet pts = make_planted(cfg).points;
  for (std::size_t i = 0; i < pts.size(); ++i)
    pts[i].w = 1 + static_cast<std::int64_t>(i % 5);
  return pts;
}

// A planted set whose every point appears `copies` times, interleaved.
WeightedSet duplicated(const WeightedSet& base, std::size_t copies) {
  WeightedSet pts;
  pts.reserve(base.size() * copies);
  for (std::size_t c = 0; c < copies; ++c)
    for (std::size_t i = 0; i < base.size(); ++i)
      pts.push_back(base[(i * 7 + c) % base.size()]);
  return pts;
}

struct TraversalCase {
  std::string name;
  WeightedSet pts;
};

std::vector<TraversalCase> traversal_cases(int dim, Norm norm) {
  const auto seed =
      static_cast<std::uint64_t>(dim * 10 + static_cast<int>(norm));
  const WeightedSet base = planted(300, dim, OutlierPattern::Spread, seed + 3);
  return {
      {"spread", planted(900, dim, OutlierPattern::Spread, seed)},
      {"burst", planted(900, dim, OutlierPattern::Burst, seed + 1)},
      {"grid", grid_points(800, seed + 2, dim, dim <= 2 ? 24 : 6)},
      {"duplicates", duplicated(base, 3)},
  };
}

// The full scan's checkpoint at each budget, taken from its prefix hook.
std::vector<GonzalezPrefix> reference_prefixes(const WeightedSet& pts,
                                               const std::vector<int>& budgets,
                                               const Metric& metric) {
  std::vector<GonzalezPrefix> out(budgets.size());
  std::vector<bool> seen(budgets.size(), false);
  const int top = *std::max_element(budgets.begin(), budgets.end());
  const GonzalezResult g = reference::gonzalez_full(
      pts, top, metric, nullptr, nullptr, [&](const GonzalezResult& r) {
        for (std::size_t i = 0; i < budgets.size(); ++i)
          if (static_cast<std::size_t>(budgets[i]) == r.center_indices.size()) {
            out[i] = {gonzalez_summary(pts, r), r.delta.back()};
            seen[i] = true;
          }
      });
  for (std::size_t i = 0; i < budgets.size(); ++i)
    if (!seen[i]) out[i] = {gonzalez_summary(pts, g), g.delta.back()};
  return out;
}

void expect_matches_full_scan(const WeightedSet& pts, int budget,
                              const Metric& metric, ThreadPool* pool) {
  const GonzalezResult want = reference::gonzalez_full(pts, budget, metric);
  expect_same_traversal(gonzalez(pts, budget, metric, pool), want);
  const kernels::PointBuffer buf(pts);
  expect_same_traversal(gonzalez(pts, budget, metric, pool, &buf), want);
}

TEST(GonzalezPruned, MatchesFullScanOverNormsDimsAndInstances) {
  ThreadPool pool1(1);
  for (const Norm norm : {Norm::L1, Norm::L2, Norm::Linf}) {
    const Metric metric(norm);
    for (const int dim : {1, 2, 3, 4, 5, 8}) {
      for (const auto& c : traversal_cases(dim, norm)) {
        SCOPED_TRACE(std::string(metric.name()) + " d=" +
                     std::to_string(dim) + " " + c.name);
        // The 300 distinct points of "duplicates" (and the grid's 24
        // cells at d = 1) reach the radius-0 stop within this budget.
        expect_matches_full_scan(c.pts, 320, metric, &pool1);
      }
    }
  }
}

TEST(GonzalezPruned, PrefixCheckpointsMatchFullScan) {
  const std::vector<int> budgets{1, 2, 17, 5, 120, 17, 600, 4000};
  for (const Norm norm : {Norm::L1, Norm::L2, Norm::Linf}) {
    const Metric metric(norm);
    for (const int dim : {2, 5}) {
      for (const auto& c : traversal_cases(dim, norm)) {
        SCOPED_TRACE(std::string(metric.name()) + " d=" +
                     std::to_string(dim) + " " + c.name);
        const auto want = reference_prefixes(c.pts, budgets, metric);
        const auto got = gonzalez_prefixes(c.pts, budgets, metric);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < budgets.size(); ++i) {
          SCOPED_TRACE("budget " + std::to_string(budgets[i]));
          expect_same_prefix(got[i], want[i].summary, want[i].delta);
        }
      }
    }
  }
}

TEST(GonzalezPruned, MatchesFullScanOnEightThreadPool) {
  // Above the relax kernel's parallel grain, so the first center's sweep
  // really splits across the pool.
  ThreadPool pool(8);
  for (const Norm norm : {Norm::L1, Norm::L2, Norm::Linf}) {
    const Metric metric(norm);
    for (const int dim : {2, 5}) {
      SCOPED_TRACE(std::string(metric.name()) + " d=" + std::to_string(dim));
      const WeightedSet pts =
          planted(20000, dim, OutlierPattern::Burst, 41 + dim);
      expect_matches_full_scan(pts, 300, metric, &pool);
      const WeightedSet grid = grid_points(20000, 43 + dim, dim, 12);
      expect_matches_full_scan(grid, 300, metric, &pool);
    }
  }
}

}  // namespace
}  // namespace kc
