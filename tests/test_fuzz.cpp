// Randomized differential tests: each compares a sophisticated structure
// against a brute-force reference over many seeds.

#include <gtest/gtest.h>

#include <map>

#include "core/cost.hpp"
#include "core/mbc.hpp"
#include "geometry/point_buffer.hpp"
#include "core/verify.hpp"
#include "dynamic/dynamic_coreset.hpp"
#include "mpc/partition.hpp"
#include "mpc/two_round.hpp"
#include "stream/insertion_only.hpp"
#include "stream/sliding_window.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "workload/streams.hpp"

namespace kc {
namespace {

const Metric kL2{Norm::L2};

TEST(Fuzz, DynamicCoresetMatchesExactTrackerAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    dynamic::DynamicCoresetOptions opt;
    opt.k = 2;
    opt.z = 4;
    opt.eps = 1.0;
    opt.delta = 64;
    opt.dim = 2;
    opt.seed = seed;
    dynamic::DynamicCoreset dc(opt);

    std::map<std::pair<std::int64_t, std::int64_t>, std::int64_t> exact;
    Rng rng(seed * 977);
    std::vector<GridPoint> alive;
    for (int step = 0; step < 300; ++step) {
      const bool do_delete = !alive.empty() && rng.bernoulli(0.35);
      if (do_delete) {
        const std::size_t pick = rng.uniform(alive.size());
        const GridPoint p = alive[pick];
        alive[pick] = alive.back();
        alive.pop_back();
        dc.update(p, -1);
        auto& cnt = exact[{p.c[0], p.c[1]}];
        --cnt;
        if (cnt == 0) exact.erase({p.c[0], p.c[1]});
      } else {
        GridPoint p{{static_cast<std::int64_t>(rng.uniform(64)),
                     static_cast<std::int64_t>(rng.uniform(64))},
                    2};
        alive.push_back(p);
        dc.update(p, +1);
        ++exact[{p.c[0], p.c[1]}];
      }
    }
    const auto q = dc.query();
    ASSERT_TRUE(q.ok) << "seed " << seed;
    std::int64_t exact_total = 0;
    for (const auto& [_, c] : exact) exact_total += c;
    EXPECT_EQ(total_weight(q.coreset), exact_total) << "seed " << seed;
    if (q.level == 0) {
      // At the finest level the non-empty cells must match exactly.
      EXPECT_EQ(q.nonempty_cells, exact.size()) << "seed " << seed;
    }
  }
}

TEST(Fuzz, SlidingWindowCoversBruteForceWindowAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::int64_t W = 80;
    stream::SlidingWindow sw(2, 3, 0.5, 1, W, 0.5, 300.0, kL2);
    Rng rng(seed * 131);
    std::vector<Point> history;
    for (std::int64_t t = 1; t <= 400; ++t) {
      Point p{rng.bernoulli(0.05) ? rng.uniform_real(0, 250)
                                  : 100.0 + rng.uniform_real(0, 3)};
      history.push_back(p);
      sw.insert(p, t);
    }
    const std::int64_t now = 400;
    const auto q = sw.query(now);
    ASSERT_GE(q.level, 0) << "seed " << seed;
    // Brute-force window: every alive point within cover_radius of a rep.
    for (std::int64_t t = now - W + 1; t <= now; ++t) {
      const Point& p = history[static_cast<std::size_t>(t - 1)];
      double best = 1e300;
      for (const auto& rep : q.coreset) best = std::min(best, kL2.dist(p, rep.p));
      EXPECT_LE(best, q.cover_radius + 1e-9)
          << "seed " << seed << " t " << t;
    }
    // And total weight never exceeds the alive count (caps only shrink).
    std::int64_t total = 0;
    for (const auto& rep : q.coreset) total += rep.w;
    EXPECT_LE(total, W);
    EXPECT_GT(total, 0);
  }
}

TEST(Fuzz, WeightedPointEquivalentToDuplicates) {
  // MBC of (p, w) must equal MBC of w consecutive unit copies of p.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 31);
    WeightedSet weighted, expanded;
    for (int i = 0; i < 30; ++i) {
      const Point p{rng.uniform_real(0, 20)};
      const auto w = static_cast<std::int64_t>(1 + rng.uniform(4));
      weighted.push_back({p, w});
      for (std::int64_t c = 0; c < w; ++c) expanded.push_back({p, 1});
    }
    const double radius = 1.5;
    const auto a = mbc_with_radius(weighted, radius, kL2);
    const auto b = mbc_with_radius(expanded, radius, kL2);
    ASSERT_EQ(a.reps.size(), b.reps.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.reps.size(); ++i) {
      EXPECT_EQ(a.reps[i].p, b.reps[i].p);
      EXPECT_EQ(a.reps[i].w, b.reps[i].w);
    }
  }
}

TEST(Fuzz, TwoRoundDeterministicAcrossRuns) {
  // The deterministic algorithm must produce bit-identical coresets on
  // repeated runs (also exercises OpenMP scheduling independence).
  PlantedConfig cfg;
  cfg.n = 1000;
  cfg.k = 3;
  cfg.z = 10;
  cfg.dim = 2;
  cfg.seed = 555;
  const auto inst = make_planted(cfg);
  const auto parts = mpc::partition_points(
      inst.points, 7, mpc::PartitionKind::EvenSorted, 0);
  mpc::TwoRoundOptions opt;
  opt.eps = 0.5;
  const auto a = mpc::two_round_coreset(parts, 3, 10, kL2, {}, opt);
  const auto b = mpc::two_round_coreset(parts, 3, 10, kL2, {}, opt);
  ASSERT_EQ(a.coreset.size(), b.coreset.size());
  for (std::size_t i = 0; i < a.coreset.size(); ++i) {
    EXPECT_EQ(a.coreset[i].p, b.coreset[i].p);
    EXPECT_EQ(a.coreset[i].w, b.coreset[i].w);
  }
  EXPECT_DOUBLE_EQ(a.r_hat, b.r_hat);
}

TEST(Fuzz, StreamOrderInvarianceOfGuarantees) {
  // Different arrival orders give different coresets but identical
  // guarantees (weight, threshold, r ≤ opt).
  PlantedConfig cfg;
  cfg.n = 700;
  cfg.k = 2;
  cfg.z = 5;
  cfg.dim = 1;
  cfg.seed = 777;
  const auto inst = make_planted(cfg);
  for (std::uint64_t order_seed = 1; order_seed <= 6; ++order_seed) {
    stream::InsertionOnlyStream s(2, 5, 1.0, 1, kL2);
    for (auto idx : shuffled_order(inst.points.size(), order_seed))
      s.insert(inst.points[idx].p);
    EXPECT_EQ(total_weight(s.coreset()),
              static_cast<std::int64_t>(inst.points.size()));
    EXPECT_LE(s.r(), inst.opt_hi + 1e-9) << "order " << order_seed;
    EXPECT_LE(s.coreset().size(), s.threshold());
  }
}

TEST(Fuzz, AosSoAPackUnpackRoundTripAcrossSeeds) {
  // Pack → unpack is the identity, however the buffer was filled: bulk
  // constructor, reserved append, and growth-forcing append (which
  // relayouts the columns several times) must all agree bitwise.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 53);
    const int dim = 1 + static_cast<int>(rng.uniform(Point::kMaxDim));
    const std::size_t n = 1 + rng.uniform(200);
    WeightedSet pts;
    pts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      Point p(dim);
      for (int j = 0; j < dim; ++j) p[j] = rng.uniform_real(-50, 50);
      pts.push_back({p, 1});
    }

    const kernels::PointBuffer bulk(pts);
    kernels::PointBuffer reserved(dim);
    reserved.reserve(n);
    kernels::PointBuffer grown(dim);  // no reserve: forces relayouts
    for (const auto& wp : pts) {
      reserved.append(wp.p);
      grown.append(wp.p.coords().data());
    }

    ASSERT_EQ(bulk.size(), n);
    ASSERT_EQ(bulk.dim(), dim);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bulk.point(i), pts[i].p) << "seed " << seed << " i " << i;
      for (int j = 0; j < dim; ++j) {
        ASSERT_EQ(bulk.col(j)[i], pts[i].p[j]);
        ASSERT_EQ(reserved.col(j)[i], pts[i].p[j]);
        ASSERT_EQ(grown.col(j)[i], pts[i].p[j]);
      }
    }

    // clear() keeps dim/capacity; refilling reproduces the same columns.
    const std::size_t cap = grown.capacity();
    grown.clear();
    EXPECT_EQ(grown.size(), 0u);
    EXPECT_EQ(grown.capacity(), cap);
    for (const auto& wp : pts) grown.append(wp.p);
    for (int j = 0; j < dim; ++j)
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(grown.col(j)[i], pts[i].p[j]);
  }
}

TEST(Fuzz, BufferSliceAliasingAcrossSeeds) {
  // Views are zero-copy: a slice's columns alias the parent's storage
  // (pointer equality), nested subviews compose like index arithmetic, and
  // per-row keys through a view match the parent's rows exactly.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 67);
    const int dim = 1 + static_cast<int>(rng.uniform(Point::kMaxDim));
    const std::size_t n = 16 + rng.uniform(200);
    kernels::PointBuffer buf(dim);
    buf.reserve(n);
    std::vector<double> row(static_cast<std::size_t>(dim));
    for (std::size_t i = 0; i < n; ++i) {
      for (int j = 0; j < dim; ++j) row[static_cast<std::size_t>(j)] =
          rng.uniform_real(-20, 20);
      buf.append(row.data());
    }
    std::vector<double> q(static_cast<std::size_t>(dim));
    for (int j = 0; j < dim; ++j)
      q[static_cast<std::size_t>(j)] = rng.uniform_real(-20, 20);

    for (int rep = 0; rep < 10; ++rep) {
      const std::size_t off = rng.uniform(n);
      const std::size_t cnt = 1 + rng.uniform(n - off);
      const auto v = buf.view(off, cnt);
      ASSERT_EQ(v.size(), cnt);
      ASSERT_EQ(v.dim(), dim);
      for (int j = 0; j < dim; ++j)
        EXPECT_EQ(v.col(j), buf.col(j) + off) << "seed " << seed;  // no copy

      const std::size_t i = rng.uniform(cnt);
      EXPECT_EQ(v.key_to<Norm::L2>(i, q.data()),
                buf.key_to<Norm::L2>(off + i, q.data()));

      if (cnt >= 2) {
        const std::size_t off2 = rng.uniform(cnt - 1);
        const std::size_t cnt2 = 1 + rng.uniform(cnt - off2);
        const auto nested = v.subview(off2, cnt2);
        for (int j = 0; j < dim; ++j)
          EXPECT_EQ(nested.col(j), buf.col(j) + off + off2);
      }
    }
  }
}

}  // namespace
}  // namespace kc
