// Tests of Algorithm 5 (fully dynamic coreset) and the derived dynamic
// (3+ε) k-center application.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <span>
#include <string>

#include "core/cost.hpp"
#include "dynamic/dynamic_coreset.hpp"
#include "dynamic/dynamic_kcenter.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "workload/streams.hpp"

namespace kc::dynamic {
namespace {

const Metric kL2{Norm::L2};

DynamicCoresetOptions small_opts(std::uint64_t seed,
                                 bool deterministic = false) {
  DynamicCoresetOptions opt;
  opt.k = 2;
  opt.z = 4;
  opt.eps = 1.0;
  opt.delta = 64;
  opt.dim = 2;
  opt.seed = seed;
  opt.deterministic_recovery = deterministic;
  return opt;
}

TEST(DynamicCoreset, SampleBudgetFormula) {
  // s = k(4√d/ε)^d + z.
  EXPECT_EQ(dynamic_sample_budget(2, 4, 1.0, 2), 2 * 32 + 4);
  EXPECT_EQ(dynamic_sample_budget(1, 0, 0.5, 1), 8 + 0);
}

TEST(DynamicCoreset, SampleBudgetBound) {
  EXPECT_EQ(dynamic_sample_budget_real(2, 4, 1.0, 2), 2.0 * 32 + 4);
  // k(4√3/1e-7)^3 ≈ 1e24 is past any representable sketch; k(8/1e-3)^4
  // ≈ 1.2e16 is representable (and far too large to allocate).
  EXPECT_GT(dynamic_sample_budget_real(3, 16, 1e-7, 3),
            static_cast<double>(kMaxSampleBudget));
  EXPECT_LT(dynamic_sample_budget_real(3, 16, 1e-3, 4),
            static_cast<double>(kMaxSampleBudget));
  EXPECT_EQ(dynamic_sample_budget(3, 16, 1e-3, 4),
            std::int64_t{3} * 8000 * 8000 * 8000 * 8000 + 16);
}

TEST(DynamicCoreset, EmptyQueryOk) {
  DynamicCoreset dc(small_opts(1));
  const auto q = dc.query();
  EXPECT_TRUE(q.ok);
  EXPECT_TRUE(q.coreset.empty());
}

TEST(DynamicCoreset, InsertThenFullDeleteReturnsEmpty) {
  DynamicCoreset dc(small_opts(2));
  const GridPoint p{{10, 20}, 2};
  dc.update(p, +1);
  dc.update(p, -1);
  const auto q = dc.query();
  EXPECT_TRUE(q.ok);
  EXPECT_TRUE(q.coreset.empty());
  EXPECT_EQ(dc.live_points(), 0);
}

TEST(DynamicCoreset, WeightsMatchLiveMultiset) {
  DynamicCoreset dc(small_opts(3));
  std::map<std::pair<std::int64_t, std::int64_t>, std::int64_t> truth;
  Rng rng(4);
  for (int i = 0; i < 40; ++i) {
    GridPoint p{{static_cast<std::int64_t>(rng.uniform(64)),
                 static_cast<std::int64_t>(rng.uniform(64))},
                2};
    dc.update(p, +1);
    ++truth[{p.c[0], p.c[1]}];
  }
  const auto q = dc.query();
  ASSERT_TRUE(q.ok);
  EXPECT_EQ(total_weight(q.coreset), 40);
  // At a fine level every non-empty cell count must match the truth; at
  // coarser levels cells merge, so only totals are comparable.  The level
  // chosen for 40 points with s = 68 should be 0 (all cells fit).
  EXPECT_EQ(q.level, 0);
  EXPECT_EQ(q.nonempty_cells, truth.size());
}

TEST(DynamicCoreset, ScriptEquivalentToFinalSet) {
  // Run a full insert/delete script; the final coreset must equal the one
  // obtained by inserting only the surviving points.
  const WeightedSet pts = testing::make_uniform(60, 2, 50.0, 5);
  const auto final_set = discretize(pts, 64);
  const auto script = make_dynamic_script(final_set, 50, 64, 2, 6);

  DynamicCoreset via_script(small_opts(7));
  for (const auto& up : script) via_script.update(up.p, up.sign);
  DynamicCoreset direct(small_opts(7));
  for (const auto& g : final_set) direct.update(g, +1);

  const auto qa = via_script.query();
  const auto qb = direct.query();
  ASSERT_TRUE(qa.ok && qb.ok);
  EXPECT_EQ(qa.level, qb.level);
  ASSERT_EQ(qa.coreset.size(), qb.coreset.size());
  for (std::size_t i = 0; i < qa.coreset.size(); ++i) {
    EXPECT_EQ(qa.coreset[i].p, qb.coreset[i].p);
    EXPECT_EQ(qa.coreset[i].w, qb.coreset[i].w);
  }
}

TEST(DynamicCoreset, CoarsensWhenOverBudget) {
  // More than s distinct cells at level 0 forces a coarser level.
  DynamicCoresetOptions opt = small_opts(8);
  opt.delta = 256;
  DynamicCoreset dc(opt);
  const std::int64_t s = dc.sample_budget();
  // Insert 4s points on a fine diagonal: level 0 has 4s non-empty cells.
  for (std::int64_t i = 0; i < 4 * s && i < 256; ++i)
    dc.update(GridPoint{{i, i}, 2}, +1);
  const auto q = dc.query();
  ASSERT_TRUE(q.ok);
  EXPECT_GT(q.level, 0);
  EXPECT_LE(static_cast<std::int64_t>(q.nonempty_cells), s);
}

TEST(DynamicCoreset, RelaxedCoresetCoversPoints) {
  // Every live point must be within (√d/2)·cell_side of a coreset rep.
  DynamicCoresetOptions opt = small_opts(9);
  opt.delta = 128;
  DynamicCoreset dc(opt);
  std::vector<GridPoint> pts;
  Rng rng(10);
  for (int i = 0; i < 100; ++i) {
    GridPoint p{{static_cast<std::int64_t>(rng.uniform(128)),
                 static_cast<std::int64_t>(rng.uniform(128))},
                2};
    pts.push_back(p);
    dc.update(p, +1);
  }
  const auto q = dc.query();
  ASSERT_TRUE(q.ok);
  const double slack = q.cell_side * std::sqrt(2.0) / 2.0 + 1e-9;
  for (const auto& g : pts) {
    double best = 1e300;
    for (const auto& rep : q.coreset)
      best = std::min(best, kL2.dist(g.to_point(), rep.p));
    EXPECT_LE(best, slack);
  }
}

TEST(DynamicCoreset, DeterministicRecoveryPath) {
  DynamicCoreset dc(small_opts(11, /*deterministic=*/true));
  Rng rng(12);
  for (int i = 0; i < 30; ++i)
    dc.update(GridPoint{{static_cast<std::int64_t>(rng.uniform(64)),
                         static_cast<std::int64_t>(rng.uniform(64))},
                        2},
              +1);
  const auto q = dc.query();
  ASSERT_TRUE(q.ok);
  EXPECT_EQ(total_weight(q.coreset), 30);
}

TEST(DynamicCoreset, WordsGrowWithLogDelta) {
  DynamicCoresetOptions small = small_opts(13);
  small.delta = 64;
  DynamicCoresetOptions large = small_opts(13);
  large.delta = 4096;
  DynamicCoreset a(small), b(large);
  EXPECT_LT(a.words(), b.words());
  // Δ ×64 doubles log Δ; storage is Θ(log²Δ) here (grid levels × per-level
  // F0 ladder), so words grow ≤ ~4× — far below the ×64 of a linear-in-Δ
  // structure and within the paper's polylog budget.
  EXPECT_LT(static_cast<double>(b.words()),
            4.0 * static_cast<double>(a.words()));
}

// predicted_words() sizes a run before anything is allocated; it must be
// exactly the words() the constructed sketch then reports, on both
// recovery paths and across Δ, d, ε and the F0 accuracy.
TEST(DynamicCoreset, PredictedWordsEqualWordsAfterConstruction) {
  for (const bool det : {false, true}) {
    for (const std::int64_t delta : {2, 64, 1000}) {
      for (const int dim : {1, 2, 3}) {
        DynamicCoresetOptions opt = small_opts(7);
        opt.delta = delta;
        opt.dim = dim;
        opt.eps = dim == 3 ? 1.0 : 0.5;
        opt.f0_eps = delta == 1000 ? 0.3 : 0.5;
        opt.deterministic_recovery = det;
        const DynamicCoreset dc(opt);
        EXPECT_EQ(DynamicCoreset::predicted_words(opt),
                  static_cast<double>(dc.words()))
            << "det=" << det << " delta=" << delta << " dim=" << dim;
      }
    }
  }
}

// Exact query outputs of seeded runs, pinned so that changes to the sketch
// internals (evaluation points, row hashing, bucket reduction, cell layout)
// cannot move the chosen level, the recovered cells, their weights or the
// storage accounting.  Each run inserts a final multiset (20 points for
// d = 1; 48 or 96 for d = 2, the first 8 doubled) plus 112 chaff points,
// then deletes the chaff: four deletes per surviving point.
struct GoldenQuery {
  std::uint64_t seed;
  std::int64_t delta;
  int dim;
  int level;
  std::size_t nonempty_cells;
  std::size_t words;
  const char* coreset;  ///< sorted "centre x weight" list
};

constexpr GoldenQuery kGoldenQueries[] = {
    {1, 64, 1, 4, 4, 57740, "8x9 24x7 40x4 56x8"},
    {1, 64, 2, 0, 48, 95456,
     "0.5,33.5x1 0.5,40.5x1 1.5,37.5x2 2.5,56.5x1 4.5,22.5x1 "
     "4.5,24.5x1 6.5,41.5x1 7.5,20.5x1 8.5,1.5x1 9.5,6.5x2 "
     "14.5,35.5x1 14.5,41.5x1 16.5,34.5x1 16.5,59.5x1 20.5,1.5x2 "
     "21.5,6.5x1 22.5,45.5x2 24.5,58.5x1 26.5,33.5x2 29.5,24.5x1 "
     "30.5,6.5x2 30.5,14.5x1 30.5,26.5x1 30.5,50.5x1 32.5,16.5x1 "
     "33.5,0.5x1 34.5,24.5x1 34.5,39.5x1 35.5,19.5x1 37.5,47.5x1 "
     "37.5,52.5x1 38.5,29.5x1 39.5,7.5x1 40.5,19.5x1 41.5,16.5x1 "
     "45.5,2.5x1 46.5,16.5x1 47.5,2.5x1 48.5,28.5x1 52.5,47.5x1 "
     "54.5,34.5x2 56.5,26.5x1 57.5,45.5x1 57.5,47.5x1 59.5,8.5x1 "
     "60.5,50.5x1 62.5,49.5x2 63.5,8.5x1"},
    {1, 256, 1, 6, 4, 87936, "32x9 96x7 160x4 224x8"},
    {1, 256, 2, 6, 16, 150576,
     "32,32x5 32,96x6 32,160x9 32,224x5 96,32x9 96,96x6 96,160x7 "
     "96,224x4 160,32x8 160,96x9 160,160x6 160,224x2 224,32x7 "
     "224,96x6 224,160x6 224,224x9"},
    {2, 64, 1, 4, 4, 57740, "8x9 24x7 40x5 56x7"},
    {2, 64, 2, 0, 47, 95456,
     "0.5,57.5x1 2.5,49.5x2 2.5,56.5x1 6.5,22.5x1 7.5,7.5x1 "
     "7.5,32.5x1 7.5,42.5x1 7.5,45.5x1 8.5,17.5x2 9.5,49.5x1 "
     "10.5,32.5x1 10.5,37.5x1 14.5,30.5x1 15.5,46.5x1 17.5,22.5x1 "
     "17.5,37.5x2 18.5,51.5x1 21.5,21.5x1 23.5,9.5x1 23.5,25.5x2 "
     "24.5,45.5x1 25.5,32.5x1 25.5,56.5x1 28.5,35.5x1 31.5,34.5x1 "
     "32.5,28.5x1 32.5,54.5x1 33.5,12.5x1 38.5,51.5x1 42.5,28.5x2 "
     "43.5,13.5x1 44.5,19.5x1 45.5,0.5x1 47.5,62.5x1 48.5,60.5x1 "
     "52.5,5.5x1 52.5,6.5x3 53.5,11.5x1 53.5,47.5x1 55.5,47.5x2 "
     "56.5,14.5x1 57.5,34.5x1 58.5,4.5x1 59.5,15.5x1 59.5,60.5x1 "
     "63.5,1.5x1 63.5,30.5x2"},
    {2, 256, 1, 6, 4, 87936, "32x9 96x7 160x5 224x7"},
    {2, 256, 2, 6, 16, 150576,
     "32,32x4 32,96x6 32,160x8 32,224x7 96,32x5 96,96x11 96,160x10 "
     "96,224x2 160,32x7 160,96x6 160,160x3 160,224x6 224,32x12 "
     "224,96x7 224,160x5 224,224x5"},
    {3, 64, 1, 4, 4, 57740, "8x4 24x9 40x5 56x10"},
    {3, 64, 2, 0, 48, 95456,
     "0.5,7.5x1 1.5,44.5x1 5.5,23.5x1 5.5,51.5x1 7.5,40.5x2 "
     "10.5,1.5x1 12.5,13.5x1 14.5,21.5x2 15.5,57.5x1 16.5,7.5x1 "
     "16.5,43.5x1 17.5,15.5x1 18.5,33.5x1 20.5,12.5x1 21.5,49.5x2 "
     "22.5,30.5x1 23.5,29.5x2 23.5,31.5x1 23.5,35.5x2 24.5,6.5x1 "
     "24.5,19.5x1 24.5,52.5x1 26.5,45.5x1 27.5,6.5x1 28.5,33.5x1 "
     "30.5,6.5x1 30.5,9.5x1 32.5,38.5x1 34.5,35.5x1 36.5,56.5x1 "
     "36.5,57.5x1 37.5,58.5x1 38.5,12.5x1 38.5,29.5x1 41.5,20.5x1 "
     "43.5,41.5x2 46.5,29.5x2 49.5,35.5x1 49.5,42.5x2 51.5,38.5x1 "
     "52.5,59.5x1 54.5,43.5x1 58.5,18.5x1 58.5,31.5x1 60.5,54.5x1 "
     "62.5,11.5x1 62.5,43.5x1 63.5,0.5x1"},
    {3, 256, 1, 6, 4, 87936, "32x4 96x9 160x5 224x10"},
    {3, 256, 2, 6, 16, 150576,
     "32,32x4 32,96x9 32,160x6 32,224x9 96,32x9 96,96x8 96,160x7 "
     "96,224x7 160,32x2 160,96x6 160,160x12 160,224x7 224,32x4 "
     "224,96x2 224,160x6 224,224x6"},
};

std::string format_coreset(WeightedSet cs) {
  std::sort(cs.begin(), cs.end(),
            [](const WeightedPoint& a, const WeightedPoint& b) {
              for (int j = 0; j < a.p.dim(); ++j)
                if (a.p[j] != b.p[j]) return a.p[j] < b.p[j];
              return a.w < b.w;
            });
  std::string out;
  char buf[64];
  for (const auto& wp : cs) {
    if (!out.empty()) out += ' ';
    for (int j = 0; j < wp.p.dim(); ++j) {
      std::snprintf(buf, sizeof buf, j == 0 ? "%g" : ",%g", wp.p[j]);
      out += buf;
    }
    std::snprintf(buf, sizeof buf, "x%lld", static_cast<long long>(wp.w));
    out += buf;
  }
  return out;
}

TEST(DynamicCoreset, GoldenQueriesAfterDeleteHeavyScripts) {
  for (const GoldenQuery& g : kGoldenQueries) {
    SCOPED_TRACE(::testing::Message() << "seed " << g.seed << " delta "
                                      << g.delta << " dim " << g.dim);
    const std::size_t n = g.dim == 1 ? 20 : (g.delta == 64 ? 48 : 96);
    auto final_set =
        discretize(testing::make_uniform(n, g.dim, 1.0, g.seed), g.delta);
    for (std::size_t i = 0; i < 8; ++i) final_set.push_back(final_set[i]);
    const auto script =
        make_dynamic_script(final_set, 112, g.delta, g.dim, g.seed + 100);

    DynamicCoresetOptions opt;
    opt.k = 1;
    opt.z = 1;
    opt.eps = 1.0;
    opt.delta = g.delta;
    opt.dim = g.dim;
    opt.seed = g.seed;
    DynamicCoreset dc(opt);
    for (const auto& up : script) dc.update(up.p, up.sign);
    const auto q = dc.query();
    ASSERT_TRUE(q.ok);
    EXPECT_EQ(q.level, g.level);
    EXPECT_EQ(q.nonempty_cells, g.nonempty_cells);
    EXPECT_EQ(dc.words(), g.words);
    EXPECT_EQ(format_coreset(q.coreset), g.coreset);
  }
}

// The same golden table driven through update_batch in one call: every
// row must match what the per-update path recorded.
TEST(DynamicCoreset, GoldenQueriesThroughUpdateBatch) {
  for (const GoldenQuery& g : kGoldenQueries) {
    SCOPED_TRACE(::testing::Message() << "seed " << g.seed << " delta "
                                      << g.delta << " dim " << g.dim);
    const std::size_t n = g.dim == 1 ? 20 : (g.delta == 64 ? 48 : 96);
    auto final_set =
        discretize(testing::make_uniform(n, g.dim, 1.0, g.seed), g.delta);
    for (std::size_t i = 0; i < 8; ++i) final_set.push_back(final_set[i]);
    const auto script =
        make_dynamic_script(final_set, 112, g.delta, g.dim, g.seed + 100);

    DynamicCoresetOptions opt;
    opt.k = 1;
    opt.z = 1;
    opt.eps = 1.0;
    opt.delta = g.delta;
    opt.dim = g.dim;
    opt.seed = g.seed;
    DynamicCoreset dc(opt);
    dc.update_batch(script);
    const auto q = dc.query();
    ASSERT_TRUE(q.ok);
    EXPECT_EQ(q.level, g.level);
    EXPECT_EQ(q.nonempty_cells, g.nonempty_cells);
    EXPECT_EQ(dc.words(), g.words);
    EXPECT_EQ(format_coreset(q.coreset), g.coreset);
  }
}

// Everything the sketch state determines: every level's decode, every F0
// estimate, the storage count and the query.
struct SketchView {
  std::int64_t live = 0;
  std::size_t words = 0;
  std::vector<std::optional<std::vector<std::pair<std::uint64_t,
                                                  std::int64_t>>>>
      decoded;
  std::vector<double> f0;
  bool ok = false;
  int level = -1;
  std::size_t nonempty_cells = 0;
  double cell_side = 0.0;
  std::string coreset;
};

SketchView view_of(const DynamicCoreset& dc) {
  SketchView v;
  v.live = dc.live_points();
  v.words = dc.words();
  for (int l = 0; l < dc.grids().levels(); ++l) {
    v.decoded.push_back(dc.recover_level(l));
    v.f0.push_back(dc.f0_estimate(l));
  }
  const auto q = dc.query();
  v.ok = q.ok;
  v.level = q.level;
  v.nonempty_cells = q.nonempty_cells;
  v.cell_side = q.cell_side;
  v.coreset = format_coreset(q.coreset);
  return v;
}

void expect_same_sketch(const SketchView& a, const SketchView& b) {
  EXPECT_EQ(a.live, b.live);
  EXPECT_EQ(a.words, b.words);
  ASSERT_EQ(a.decoded.size(), b.decoded.size());
  for (std::size_t l = 0; l < a.decoded.size(); ++l) {
    EXPECT_EQ(a.decoded[l], b.decoded[l]) << "level " << l;
    EXPECT_EQ(a.f0[l], b.f0[l]) << "level " << l;
  }
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.level, b.level);
  EXPECT_EQ(a.nonempty_cells, b.nonempty_cells);
  EXPECT_EQ(a.cell_side, b.cell_side);
  EXPECT_EQ(a.coreset, b.coreset);
}

// A live set of `n` points: `local` draws them within ±2 of three centres
// (many share a level-0 cell), otherwise uniformly over [Δ]^d.
std::vector<GridPoint> live_set(std::size_t n, std::int64_t delta, int dim,
                                bool local, Rng& rng) {
  std::vector<GridPoint> centres(3);
  for (auto& c : centres) {
    c.dim = dim;
    for (int j = 0; j < dim; ++j)
      c.c[static_cast<std::size_t>(j)] = rng.uniform_int(0, delta - 1);
  }
  std::vector<GridPoint> pts(n);
  for (auto& p : pts) {
    p.dim = dim;
    const GridPoint& c = centres[rng.uniform(centres.size())];
    for (int j = 0; j < dim; ++j) {
      const auto i = static_cast<std::size_t>(j);
      p.c[i] = local ? std::clamp<std::int64_t>(c.c[i] + rng.uniform_int(-2, 2),
                                                0, delta - 1)
                     : rng.uniform_int(0, delta - 1);
    }
  }
  return pts;
}

// update_batch over any split of a script into spans (empty ones, single
// updates, spans past kBatchChunk) leaves the sketch word for word where
// one update() per element leaves it; so do batches whose per-cell sums
// are all zero.
TEST(DynamicCoreset, UpdateBatchMatchesUpdateOnRandomSplits) {
  for (const bool det : {false, true}) {
    for (const int dim : {1, 2, 3}) {
      for (const bool local : {true, false}) {
        SCOPED_TRACE(::testing::Message() << "det " << det << " dim " << dim
                                          << " local " << local);
        DynamicCoresetOptions opt;
        opt.k = 1;
        opt.z = 1;
        opt.eps = 1.0;
        // The deterministic decoder scans the universe: keep it small.
        opt.delta = det ? 16 : (dim == 3 ? 64 : 256);
        opt.dim = dim;
        opt.seed = 40 + static_cast<std::uint64_t>(dim);
        opt.deterministic_recovery = det;
        Rng rng(opt.seed * 2 + (local ? 1 : 0));
        // Over kBatchChunk updates; the live set is smaller on the
        // deterministic path, whose decode is quadratic in the budget.
        const std::size_t live = det ? 60 : 1500;
        const auto script = make_dynamic_script(
            live_set(live, opt.delta, dim, local, rng), 3000 - live, opt.delta,
            dim, opt.seed + 7);
        ASSERT_GT(script.size(), DynamicCoreset::kBatchChunk);

        DynamicCoreset ref(opt);
        for (const auto& up : script) ref.update(up.p, up.sign);
        const SketchView want = view_of(ref);

        const std::span<const GridUpdate> all(script);
        for (int split = 0; split < 4; ++split) {
          SCOPED_TRACE(::testing::Message() << "split " << split);
          DynamicCoreset dc(opt);
          if (split == 0) {
            for (std::size_t i = 0; i < all.size(); ++i)
              dc.update_batch(all.subspan(i, 1));
          } else if (split == 1) {
            dc.update_batch(all);
          } else {
            // Random spans of 0..600 updates (split 2), or 0..600 plus one
            // span of kBatchChunk + 123 (split 3), with empty spans
            // between them.
            std::size_t at = 0;
            bool long_span = split == 3;
            while (at < all.size()) {
              std::size_t len = rng.uniform(601);
              if (long_span && at > 0) {
                len = DynamicCoreset::kBatchChunk + 123;
                long_span = false;
              }
              len = std::min(len, all.size() - at);
              dc.update_batch(all.subspan(at, len));
              dc.update_batch(all.subspan(at, 0));
              at += len;
            }
          }
          expect_same_sketch(view_of(dc), want);
        }

        // Insert-then-delete pairs nested in one span sum to zero in every
        // cell: the state must not move.
        DynamicCoreset dc(opt);
        dc.update_batch(all);
        const auto extra = live_set(300, opt.delta, dim, local, rng);
        std::vector<GridUpdate> zero;
        for (const auto& p : extra) zero.push_back({p, +1});
        for (auto it = extra.rbegin(); it != extra.rend(); ++it)
          zero.push_back({*it, -1});
        dc.update_batch(zero);
        expect_same_sketch(view_of(dc), want);
      }
    }
  }
}

// Strict turnstile holds on every prefix of a batch: [−p, +p] on an empty
// sketch sums to zero, yet its first prefix deletes a point never inserted.
TEST(DynamicCoresetDeathTest, UpdateBatchChecksEveryPrefix) {
  DynamicCoreset dc(small_opts(3));
  const GridPoint p{{5, 9}, 2};
  const std::vector<GridUpdate> batch{{p, -1}, {p, +1}};
  EXPECT_DEATH(dc.update_batch(batch), "live_ >= 0");
}

TEST(DynamicKCenter, SolvesPlantedGridInstance) {
  PlantedConfig cfg;
  cfg.n = 400;
  cfg.k = 2;
  cfg.z = 4;
  cfg.dim = 2;
  cfg.seed = 15;
  const auto inst = make_planted(cfg);
  const auto grid_pts = discretize(inst.points, 1 << 10);

  DynamicCoresetOptions opt;
  opt.k = 2;
  opt.z = 4;
  opt.eps = 0.5;
  opt.delta = 1 << 10;
  opt.dim = 2;
  opt.seed = 16;
  DynamicKCenter dyn(opt);
  for (const auto& g : grid_pts) dyn.insert(g);

  const auto sol = dyn.solve();
  ASSERT_TRUE(sol.ok);
  EXPECT_GT(sol.coreset_size, 0u);
  // Evaluate the solution against the exact (discretized) point set.
  WeightedSet exact;
  for (const auto& g : grid_pts) exact.push_back({g.to_point(), 1});
  const double r =
      radius_with_outliers(exact, sol.solution.centers, 4, kL2);
  const Solution direct = solve_kcenter_outliers(exact, 2, 4, kL2);
  EXPECT_LE(r, 4.0 * direct.radius + 4.0 * sol.solution.radius + 1e-9);
}

}  // namespace
}  // namespace kc::dynamic
