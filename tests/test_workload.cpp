#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "core/cost.hpp"
#include "test_support.hpp"
#include "workload/generators.hpp"
#include "workload/streams.hpp"

namespace kc {
namespace {

const Metric kL2{Norm::L2};

TEST(Planted, SizesAndWeights) {
  PlantedConfig cfg;
  cfg.n = 500;
  cfg.k = 4;
  cfg.z = 10;
  cfg.seed = 1;
  const PlantedInstance inst = make_planted(cfg);
  EXPECT_EQ(inst.points.size(), 500u);
  EXPECT_EQ(inst.outlier_indices.size(), 10u);
  EXPECT_EQ(total_weight(inst.points), 500);
  EXPECT_EQ(inst.planted_centers.size(), 4u);
}

TEST(Planted, BracketIsConsistent) {
  for (std::uint64_t seed : {1ULL, 5ULL, 9ULL}) {
    PlantedConfig cfg;
    cfg.n = 400;
    cfg.k = 3;
    cfg.z = 8;
    cfg.seed = seed;
    const PlantedInstance inst = make_planted(cfg);
    EXPECT_GT(inst.opt_lo, 0.0);
    EXPECT_LE(inst.opt_lo, inst.opt_hi + 1e-12);
    EXPECT_LE(inst.opt_hi, cfg.cluster_radius + 1e-12);
  }
}

TEST(Planted, PlantedCentersAchieveOptHi) {
  PlantedConfig cfg;
  cfg.n = 300;
  cfg.k = 3;
  cfg.z = 6;
  cfg.seed = 3;
  const PlantedInstance inst = make_planted(cfg);
  const double r =
      radius_with_outliers(inst.points, inst.planted_centers, cfg.z, kL2);
  EXPECT_LE(r, inst.opt_hi + 1e-9);
}

TEST(Planted, OutliersAreFar) {
  PlantedConfig cfg;
  cfg.n = 300;
  cfg.k = 2;
  cfg.z = 5;
  cfg.seed = 4;
  const PlantedInstance inst = make_planted(cfg);
  for (auto idx : inst.outlier_indices) {
    double nearest_center = 1e300;
    for (const auto& c : inst.planted_centers)
      nearest_center = std::min(nearest_center,
                                kL2.dist(inst.points[idx].p, c));
    EXPECT_GE(nearest_center, cfg.separation * cfg.cluster_radius);
  }
}

TEST(Planted, SkewConcentratesMass) {
  PlantedConfig even, skewed;
  even.n = skewed.n = 1000;
  even.k = skewed.k = 4;
  even.z = skewed.z = 4;
  even.seed = skewed.seed = 8;
  skewed.skew = 0.9;
  const auto e = make_planted(even);
  const auto s = make_planted(skewed);
  // Count points near the first planted center.
  auto near_first = [&](const PlantedInstance& inst) {
    std::size_t c = 0;
    for (const auto& wp : inst.points)
      if (kL2.dist(wp.p, inst.planted_centers[0]) <= 1.5) ++c;
    return c;
  };
  EXPECT_GT(near_first(s), near_first(e) + 100);
}

TEST(Planted, DeterministicForSeed) {
  PlantedConfig cfg;
  cfg.n = 200;
  cfg.k = 2;
  cfg.z = 3;
  cfg.seed = 12;
  const auto a = make_planted(cfg);
  const auto b = make_planted(cfg);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i)
    EXPECT_EQ(a.points[i].p, b.points[i].p);
}

// FNV-1a over the bit patterns of every coordinate and weight, the outlier
// indices and the certified bracket.
std::uint64_t fingerprint(const PlantedInstance& inst) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& wp : inst.points) {
    for (const double c : wp.p.coords()) mix(std::bit_cast<std::uint64_t>(c));
    mix(static_cast<std::uint64_t>(wp.w));
  }
  for (const std::size_t i : inst.outlier_indices) mix(i);
  mix(std::bit_cast<std::uint64_t>(inst.opt_lo));
  mix(std::bit_cast<std::uint64_t>(inst.opt_hi));
  return h;
}

TEST(Planted, GoldenFingerprints) {
  // Recorded before make_planted stopped keeping a copy of every cluster
  // until the end: the instance must not move by a bit.
  PlantedConfig even;
  even.n = 3000;
  even.k = 3;
  even.z = 20;
  even.seed = 5;
  PlantedConfig burst;
  burst.n = 2500;
  burst.k = 4;
  burst.z = 10;
  burst.dim = 3;
  burst.norm = Norm::Linf;
  burst.duplicates = 3;
  burst.outliers = OutlierPattern::Burst;
  burst.seed = 6;
  PlantedConfig skewed;
  skewed.n = 1800;
  skewed.k = 2;
  skewed.z = 0;
  skewed.dim = 1;
  skewed.norm = Norm::L1;
  skewed.skew = 0.5;
  skewed.seed = 7;
  PlantedConfig explicit_sizes;
  explicit_sizes.n = 905;
  explicit_sizes.k = 2;
  explicit_sizes.z = 5;
  explicit_sizes.cluster_sizes = {700, 200};
  explicit_sizes.seed = 8;
  const std::pair<PlantedConfig, std::uint64_t> cases[] = {
      {even, 10190864559853788562ULL},
      {burst, 1820970838144557143ULL},
      {skewed, 5477190255355499038ULL},
      {explicit_sizes, 2835867383747208404ULL},
  };
  for (const auto& [cfg, want] : cases) {
    SCOPED_TRACE("seed " + std::to_string(cfg.seed));
    const PlantedInstance inst = make_planted(cfg);
    EXPECT_EQ(fingerprint(inst), want);
    ASSERT_EQ(inst.buffer.size(), inst.points.size());
    for (std::size_t i = 0; i < inst.points.size(); ++i)
      ASSERT_EQ(inst.buffer.point(i), inst.points[i].p) << "row " << i;
  }
}

TEST(Drifting, GoldenFingerprints) {
  // Recorded before make_drifting stopped keeping a copy of every cluster
  // and an assembly array: the instance must not move by a bit.  Covers
  // uneven splits (n − z not a multiple of k), z = 0, one-point clusters
  // (diameter bound 0) and a bench-shaped stream.
  PlantedConfig base;
  base.n = 3000;
  base.k = 3;
  base.z = 20;
  base.seed = 5;
  PlantedConfig linf;
  linf.n = 2501;
  linf.k = 4;
  linf.z = 10;
  linf.dim = 3;
  linf.norm = Norm::Linf;
  linf.seed = 6;
  PlantedConfig line;
  line.n = 1801;
  line.k = 2;
  line.z = 0;
  line.dim = 1;
  line.norm = Norm::L1;
  line.seed = 7;
  PlantedConfig tight;
  tight.n = 907;
  tight.k = 5;
  tight.z = 7;
  tight.cluster_radius = 0.3;
  tight.separation = 25.0;
  tight.seed = 8;
  PlantedConfig pair;
  pair.n = 2;
  pair.k = 1;
  pair.z = 0;
  pair.seed = 9;
  PlantedConfig singletons;
  singletons.n = 3;
  singletons.k = 3;
  singletons.z = 0;
  singletons.seed = 10;
  PlantedConfig bench_shape;
  bench_shape.n = 20000;
  bench_shape.k = 3;
  bench_shape.z = 100;
  bench_shape.seed = 11;
  const std::pair<PlantedConfig, std::uint64_t> cases[] = {
      {base, 7280035116528594483ULL},
      {linf, 17532114903226092386ULL},
      {line, 8145574479364423300ULL},
      {tight, 8373760445391169486ULL},
      {pair, 1603252187669658775ULL},
      {singletons, 17606073031750565368ULL},
      {bench_shape, 15165650739819614902ULL},
  };
  for (const auto& [cfg, want] : cases) {
    SCOPED_TRACE("seed " + std::to_string(cfg.seed));
    const PlantedInstance inst = make_drifting(cfg);
    EXPECT_EQ(fingerprint(inst), want);
    EXPECT_EQ(inst.outlier_indices.size(), static_cast<std::size_t>(cfg.z));
    ASSERT_EQ(inst.buffer.size(), inst.points.size());
    for (std::size_t i = 0; i < inst.points.size(); ++i)
      ASSERT_EQ(inst.buffer.point(i), inst.points[i].p) << "row " << i;
  }
}

TEST(Uniform, InBounds) {
  const WeightedSet pts = testing::make_uniform(200, 3, 10.0, 5);
  EXPECT_EQ(pts.size(), 200u);
  for (const auto& wp : pts)
    for (int i = 0; i < 3; ++i) {
      EXPECT_GE(wp.p[i], 0.0);
      EXPECT_LE(wp.p[i], 10.0);
    }
}

TEST(Discretize, FitsUniverse) {
  const WeightedSet pts = testing::make_uniform(300, 2, 7.0, 6);
  const auto grid = discretize(pts, 64);
  ASSERT_EQ(grid.size(), pts.size());
  for (const auto& g : grid)
    for (int i = 0; i < 2; ++i) {
      EXPECT_GE(g.c[static_cast<std::size_t>(i)], 0);
      EXPECT_LT(g.c[static_cast<std::size_t>(i)], 64);
    }
}

TEST(Discretize, PreservesRelativeGeometry) {
  WeightedSet pts;
  pts.push_back({Point{0.0, 0.0}, 1});
  pts.push_back({Point{100.0, 0.0}, 1});
  pts.push_back({Point{1.0, 0.0}, 1});
  const auto grid = discretize(pts, 128);
  // Far pair maps far, near pair maps near.
  EXPECT_GT(std::abs(grid[1].c[0] - grid[0].c[0]), 100);
  EXPECT_LE(std::abs(grid[2].c[0] - grid[0].c[0]), 2);
}

TEST(DynamicScript, TurnstileValidAndFinalSetCorrect) {
  // Build final set, run the script, confirm multiset equality and strict
  // turnstile validity (no negative counts at any prefix).
  const WeightedSet pts = testing::make_uniform(120, 2, 50.0, 7);
  const auto final_set = discretize(pts, 64);
  const DynamicScript script =
      make_dynamic_script(final_set, /*chaff=*/80, 64, 2, 11);

  std::map<std::pair<std::int64_t, std::int64_t>, std::int64_t> alive;
  for (const auto& up : script) {
    auto key = std::make_pair(up.p.c[0], up.p.c[1]);
    alive[key] += up.sign;
    ASSERT_GE(alive[key], 0) << "turnstile violated";
  }
  std::map<std::pair<std::int64_t, std::int64_t>, std::int64_t> expect;
  for (const auto& g : final_set) ++expect[std::make_pair(g.c[0], g.c[1])];
  for (auto& [key, cnt] : alive)
    if (cnt == 0) continue;
  // Remove zero entries for comparison.
  std::erase_if(alive, [](const auto& kv) { return kv.second == 0; });
  EXPECT_EQ(alive, expect);
  EXPECT_EQ(script.size(), final_set.size() + 2u * 80u);
}

TEST(ShuffledOrder, IsPermutation) {
  const auto ord = shuffled_order(100, 13);
  std::set<std::size_t> s(ord.begin(), ord.end());
  EXPECT_EQ(s.size(), 100u);
  EXPECT_EQ(*s.begin(), 0u);
  EXPECT_EQ(*s.rbegin(), 99u);
}

TEST(AdversarialOrder, OutliersFirst) {
  PlantedConfig cfg;
  cfg.n = 150;
  cfg.k = 2;
  cfg.z = 6;
  cfg.seed = 21;
  const auto inst = make_planted(cfg);
  const auto order = testing::adversarial_order(
      testing::strip_weights(inst.points), inst.outlier_indices);
  ASSERT_EQ(order.size(), inst.points.size());
  std::set<std::size_t> outliers(inst.outlier_indices.begin(),
                                 inst.outlier_indices.end());
  for (std::size_t i = 0; i < outliers.size(); ++i)
    EXPECT_TRUE(outliers.count(order[i])) << "position " << i;
}

}  // namespace
}  // namespace kc
