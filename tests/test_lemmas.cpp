// Direct numeric tests of the paper's quantitative lemmas, independent of
// any algorithm: Lemma 6 (packing), Lemma 25 (grid choice), and the
// naive-store baseline used by the T1-DYN comparison.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/cost.hpp"
#include "core/gonzalez.hpp"
#include "dynamic/dynamic_coreset.hpp"
#include "dynamic/naive_store.hpp"
#include "geometry/grid.hpp"
#include "test_support.hpp"
#include "workload/generators.hpp"

namespace kc {
namespace {

const Metric kL2{Norm::L2};

TEST(Lemma6, PackingBoundOnSeparatedSubsets) {
  // Any δ-separated subset Q of P has |Q| ≤ k(4·opt/δ)^d + z.  We extract a
  // maximal δ-separated subset greedily and compare against the bound with
  // opt ≤ opt_hi from the planted bracket.
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    PlantedConfig cfg;
    cfg.n = 1200;
    cfg.k = 3;
    cfg.z = 10;
    cfg.dim = 2;
    cfg.seed = seed;
    const auto inst = make_planted(cfg);
    for (const double frac : {0.5, 0.25}) {
      const double delta = frac * inst.opt_lo;  // δ ≤ opt required
      // Greedy maximal δ-separated subset.
      PointSet sep;
      for (const auto& wp : inst.points) {
        bool far = true;
        for (const auto& q : sep)
          if (kL2.dist(wp.p, q) <= delta) {
            far = false;
            break;
          }
        if (far) sep.push_back(wp.p);
      }
      const double bound =
          3.0 * std::pow(4.0 * inst.opt_hi / delta, 2) + 10.0;
      EXPECT_LE(static_cast<double>(sep.size()), bound)
          << "seed " << seed << " frac " << frac;
    }
  }
}

TEST(Lemma25, GridAtOptScaleHasFewNonEmptyCells) {
  // If 2^j ≤ (ε/√d)·opt < 2^{j+1}, grid G_j has ≤ k(4√d/ε)^d + z non-empty
  // cells.  Build a planted instance on [Δ]^2, locate j from the bracket,
  // and count cells exactly.
  PlantedConfig cfg;
  cfg.n = 900;
  cfg.k = 3;
  cfg.z = 8;
  cfg.dim = 2;
  cfg.seed = 7;
  const auto inst = make_planted(cfg);
  const std::int64_t delta = 1 << 12;
  const auto grid_pts = discretize(inst.points, delta);
  // The discretization scales distances; recompute the bracket in grid
  // space via the planted centers mapped through the same transform: use
  // the exact radius of the discretized set under the planted structure.
  WeightedSet grid_set;
  for (const auto& g : grid_pts) grid_set.push_back({g.to_point(), 1});
  // opt in grid space is certified by solving against a Gonzalez summary:
  // get a 2-sided estimate via the k+z+1 farthest-point pigeonhole.
  const GonzalezResult gz =
      gonzalez(grid_set, cfg.k + static_cast<int>(cfg.z) + 1, kL2);
  const double lo = gz.delta.back() / 2.0;  // opt ≥ δ_{k+z+1}/2

  const double eps = 0.5;
  const GridHierarchy grids(delta, 2);
  // j from the paper with the certified lower bound (a finer grid than the
  // true j only strengthens the cell count's meaning here).
  const int j = std::max(
      0, static_cast<int>(std::floor(
             std::log2(eps / std::sqrt(2.0) * lo))));
  ASSERT_LT(j, grids.levels());
  std::set<std::uint64_t> cells;
  for (const auto& g : grid_pts) cells.insert(grids.cell_id(g, j));
  const double bound =
      3.0 * std::pow(4.0 * std::sqrt(2.0) / eps, 2) + 8.0;
  EXPECT_LE(static_cast<double>(cells.size()), bound);
}

TEST(NaiveStore, TracksMultisetExactly) {
  dynamic::NaivePointStore store(2);
  const GridPoint a{{1, 2}, 2}, b{{3, 4}, 2};
  store.update(a, +1);
  store.update(a, +1);
  store.update(b, +1);
  EXPECT_EQ(store.live_points(), 3);
  EXPECT_EQ(store.words(), 2u * 3u);
  store.update(a, -1);
  EXPECT_EQ(store.live_points(), 2);
  EXPECT_EQ(store.words(), 2u * 3u);  // a and b are both still live
  store.update(a, -1);
  store.update(b, -1);
  EXPECT_EQ(store.live_points(), 0);
  EXPECT_EQ(store.words(), 0u);
  EXPECT_EQ(store.peak_words(), 2u * 3u);
}

TEST(NaiveStore, WordsGrowLinearlyWhileSketchStaysFlat) {
  // The Table-1 separation: naive words ~ live points, sketch words flat.
  dynamic::DynamicCoresetOptions opt;
  opt.k = 2;
  opt.z = 4;
  opt.eps = 1.0;
  opt.delta = 256;
  opt.dim = 2;
  opt.seed = 3;
  dynamic::DynamicCoreset sketch(opt);
  dynamic::NaivePointStore naive(2);
  const std::size_t before_sketch = sketch.words();

  Rng rng(5);
  for (int i = 0; i < 4000; ++i) {
    GridPoint p{{static_cast<std::int64_t>(rng.uniform(256)),
                 static_cast<std::int64_t>(rng.uniform(256))},
                2};
    sketch.update(p, +1);
    naive.update(p, +1);
  }
  EXPECT_EQ(sketch.words(), before_sketch);  // exactly constant
  EXPECT_GT(naive.words(), 3000u);           // ~ one entry per distinct cell
}

}  // namespace
}  // namespace kc
