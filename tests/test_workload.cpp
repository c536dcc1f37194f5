#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

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

// FNV-1a over 64-bit words.
class Fnv {
 public:
  void mix(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (word >> (8 * b)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void mix(const Point& p) {
    for (const double c : p.coords()) mix(std::bit_cast<std::uint64_t>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// FNV-1a over the bit patterns of every coordinate and weight, the outlier
// indices and the certified bracket.
std::uint64_t fingerprint(const PlantedInstance& inst) {
  Fnv h;
  for (const auto& wp : inst.points) {
    h.mix(wp.p);
    h.mix(static_cast<std::uint64_t>(wp.w));
  }
  for (const std::size_t i : inst.outlier_indices) h.mix(i);
  h.mix(std::bit_cast<std::uint64_t>(inst.opt_lo));
  h.mix(std::bit_cast<std::uint64_t>(inst.opt_hi));
  return h.value();
}

// FNV-1a over the bit patterns of the planted centers.
std::uint64_t centers_fingerprint(const PlantedInstance& inst) {
  Fnv h;
  for (const Point& c : inst.planted_centers) h.mix(c);
  return h.value();
}

// A generator output pinned by its parent's bits: the points, outliers and
// bracket (`points`), and the planted centers (`centers`).
struct Golden {
  std::string name;
  PlantedConfig cfg;
  std::uint64_t points;
  std::uint64_t centers;
};

void expect_golden(const PlantedInstance& inst, const Golden& g) {
  EXPECT_EQ(fingerprint(inst), g.points);
  EXPECT_EQ(centers_fingerprint(inst), g.centers);
  // The SoA buffer holds the same doubles as the AoS points, bit for bit.
  ASSERT_EQ(inst.buffer.size(), inst.points.size());
  ASSERT_EQ(inst.buffer.dim(), g.cfg.dim);
  for (std::size_t i = 0; i < inst.points.size(); ++i)
    for (int j = 0; j < g.cfg.dim; ++j)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(inst.buffer.col(j)[i]),
                std::bit_cast<std::uint64_t>(inst.points[i].p[j]))
          << "row " << i << " coordinate " << j;
}

// Cases past d ≤ 3, shared by both generators: d = 4 and 8 under L2 and
// L∞, L1 at d = 4 (it accepts 1 in 24 cube draws), duplicated Spread
// outliers, Burst outliers at d = 8, skew at d = 4, and n − z not a
// multiple of k.  make_drifting ignores the duplicates, the outlier
// pattern and the skew, so its cases pin that too.  want[i] is case i's
// (points, centers) golden.
std::vector<Golden> wide_cases(const std::uint64_t (&want)[9][2]) {
  const auto golden = [](const char* name, std::size_t n, int k,
                         std::int64_t z, int dim, Norm norm,
                         std::uint64_t seed) {
    PlantedConfig c;
    c.n = n;
    c.k = k;
    c.z = z;
    c.dim = dim;
    c.norm = norm;
    c.seed = seed;
    return Golden{name, c, 0, 0};
  };
  std::vector<Golden> out = {
      golden("d4_l2", 2000, 3, 12, 4, Norm::L2, 21),
      golden("d8_l2", 1500, 5, 10, 8, Norm::L2, 22),
      golden("d4_linf", 2000, 3, 12, 4, Norm::Linf, 23),
      golden("d8_linf", 1500, 5, 10, 8, Norm::Linf, 24),
      golden("d4_l1", 300, 2, 4, 4, Norm::L1, 25),
      golden("spread_dup2", 1201, 3, 9, 2, Norm::L2, 26),
      golden("burst_d8", 1200, 4, 15, 8, Norm::L2, 27),
      golden("skew_d4", 1600, 4, 8, 4, Norm::L2, 28),
      golden("uneven_split", 1003, 4, 6, 3, Norm::L2, 29),
  };
  out[5].cfg.duplicates = 2;
  out[6].cfg.outliers = OutlierPattern::Burst;
  out[7].cfg.skew = 0.6;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].points = want[i][0];
    out[i].centers = want[i][1];
  }
  return out;
}

TEST(Planted, GoldenFingerprints) {
  // The first four were recorded before make_planted stopped keeping a
  // copy of every cluster until the end, the wide ones before it drew into
  // flat rows and shuffled an index permutation (both at parent commit
  // 9645199): the instance must not move by a bit.
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
  const std::uint64_t wide[9][2] = {
      {14121368636136965017ULL, 3442585670452677669ULL},  // d4_l2
      {9855335734635146848ULL, 6294230168338320641ULL},  // d8_l2
      {3013263629456125667ULL, 3442585670452677669ULL},  // d4_linf
      {16317940844305164911ULL, 6294230168338320641ULL},  // d8_linf
      {326722500384748528ULL, 11790112723100937473ULL},  // d4_l1
      {166389695431866694ULL, 12586192846673224549ULL},  // spread_dup2
      {6611677164627946434ULL, 16766575454583790117ULL},  // burst_d8
      {7493200211175446961ULL, 9044899166990410277ULL},  // skew_d4
      {10210659283043667473ULL, 8049376320282518949ULL},  // uneven_split
  };
  std::vector<Golden> cases = {
      {"even", even, 10190864559853788562ULL, 12586192846673224549ULL},
      {"burst", burst, 1820970838144557143ULL, 8049376320282518949ULL},
      {"skewed", skewed, 5477190255355499038ULL, 9743757392813400257ULL},
      {"explicit_sizes", explicit_sizes, 2835867383747208404ULL,
       11966051171568997761ULL},
  };
  for (const Golden& g : wide_cases(wide)) cases.push_back(g);
  for (const Golden& g : cases) {
    SCOPED_TRACE(g.name);
    expect_golden(make_planted(g.cfg), g);
  }
}

TEST(Drifting, GoldenFingerprints) {
  // The first seven were recorded before make_drifting stopped keeping a
  // copy of every cluster and an assembly array, the wide ones before it
  // drew into flat rows (at parent commit 9645199): the instance must not
  // move by a bit.  Covers uneven splits (n − z not a multiple of k),
  // z = 0, one-point clusters (diameter bound 0) and a bench-shaped
  // stream.
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
  const std::uint64_t wide[9][2] = {
      {17148861045461204537ULL, 3442585670452677669ULL},  // d4_l2
      {4559829554432870639ULL, 6294230168338320641ULL},  // d8_l2
      {12621536833149206581ULL, 3442585670452677669ULL},  // d4_linf
      {11798334373731758510ULL, 6294230168338320641ULL},  // d8_linf
      {18038319485101835808ULL, 11790112723100937473ULL},  // d4_l1
      {11691332635990645330ULL, 12586192846673224549ULL},  // spread_dup2
      {1403352059335826213ULL, 16766575454583790117ULL},  // burst_d8
      {2043898250737402230ULL, 9044899166990410277ULL},  // skew_d4
      {1496439352824647185ULL, 8049376320282518949ULL},  // uneven_split
  };
  std::vector<Golden> cases = {
      {"base", base, 7280035116528594483ULL, 12586192846673224549ULL},
      {"linf", linf, 17532114903226092386ULL, 8049376320282518949ULL},
      {"line", line, 8145574479364423300ULL, 9743757392813400257ULL},
      {"tight", tight, 8373760445391169486ULL, 10904849398076836395ULL},
      {"pair", pair, 1603252187669658775ULL, 9808874869469701221ULL},
      {"singletons", singletons, 17606073031750565368ULL,
       12586192846673224549ULL},
      {"bench_shape", bench_shape, 15165650739819614902ULL,
       12586192846673224549ULL},
  };
  for (const Golden& g : wide_cases(wide)) cases.push_back(g);
  for (const Golden& g : cases) {
    SCOPED_TRACE(g.name);
    const PlantedInstance inst = make_drifting(g.cfg);
    expect_golden(inst, g);
    EXPECT_EQ(inst.outlier_indices.size(), static_cast<std::size_t>(g.cfg.z));
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

std::uint64_t script_fingerprint(const DynamicScript& script) {
  Fnv h;
  for (const auto& up : script) {
    h.mix(static_cast<std::uint64_t>(up.p.dim));
    for (int j = 0; j < up.p.dim; ++j)
      h.mix(static_cast<std::uint64_t>(up.p.c[static_cast<std::size_t>(j)]));
    h.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(up.sign)));
  }
  return h.value();
}

TEST(DynamicScript, GoldenFingerprints) {
  // Recorded at parent commit 9645199, before the script shuffled a 4-byte
  // index permutation in place of (point, is_chaff) pairs: no update may
  // move.  The last case has no final set, only chaff.
  struct Case {
    std::size_t n;
    int dim;
    std::int64_t delta;
    std::size_t chaff;
    std::uint64_t seed;
    std::uint64_t want;
  };
  const Case cases[] = {
      {2000, 2, 256, 1000, 3, 11599195793579058425ULL},
      {900, 3, 64, 300, 4, 12794793240696269231ULL},
      {500, 1, 1024, 0, 5, 3038124751275507175ULL},
      {0, 2, 32, 400, 6, 16785211232518456229ULL},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("seed " + std::to_string(c.seed));
    std::vector<GridPoint> grid;
    if (c.n > 0) {
      PlantedConfig pc;
      pc.n = c.n;
      pc.k = 3;
      pc.z = 10;
      pc.dim = c.dim;
      pc.seed = c.seed;
      grid = discretize(make_planted(pc).points, c.delta);
    }
    const DynamicScript script =
        make_dynamic_script(grid, c.chaff, c.delta, c.dim, c.seed + 2);
    EXPECT_EQ(script.size(), c.n + 2 * c.chaff);
    EXPECT_EQ(script_fingerprint(script), c.want);
  }
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
