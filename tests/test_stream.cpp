// Tests of Algorithm 3 (insertion-only streaming) and the threshold-policy
// baseline, including the r ≤ opt invariant, the covering property, and
// the space bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/cost.hpp"
#include "stream/insertion_only.hpp"
#include "test_support.hpp"
#include "workload/streams.hpp"

namespace kc::stream {
namespace {

const Metric kL2{Norm::L2};

// Feed a planted instance in the given order; return the stream state.
InsertionOnlyStream feed(const PlantedInstance& inst,
                         const std::vector<std::size_t>& order, int k,
                         std::int64_t z, double eps, int dim,
                         ThresholdPolicy policy = ThresholdPolicy::Ours) {
  InsertionOnlyStream s(k, z, eps, dim, kL2, policy);
  for (auto idx : order) s.insert(inst.points[idx].p);
  return s;
}

TEST(InsertionOnly, ThresholdFormulas) {
  EXPECT_EQ(stream_threshold(2, 5, 1.0, 1, ThresholdPolicy::Ours),
            2u * 16u + 5u);
  EXPECT_EQ(stream_threshold(2, 5, 1.0, 1, ThresholdPolicy::Ceccarello),
            7u * 16u);
  EXPECT_EQ(stream_threshold(1, 0, 0.5, 2, ThresholdPolicy::Ours),
            static_cast<std::size_t>(32 * 32));
}

TEST(InsertionOnly, ThresholdSaturatesAtTinyEps) {
  // k(16/ε)^d at ε = 1e-12, d = 8 is ~1e105: past the size_t range, so both
  // policies saturate instead of casting out of range ("never recompress").
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(stream_threshold(2, 4, 1e-12, 8, ThresholdPolicy::Ours), kMax);
  EXPECT_EQ(stream_threshold(2, 4, 1e-12, 8, ThresholdPolicy::Ceccarello),
            kMax);
  // k(16/ε)^d = 2^64 is the first value past the range; 2^63 still casts
  // exactly and z is added on top.
  EXPECT_EQ(stream_threshold(1, 5, 0x1p-12, 4, ThresholdPolicy::Ours), kMax);
  EXPECT_EQ(stream_threshold(1, 5, 0x1p-59, 1, ThresholdPolicy::Ours),
            (std::size_t{1} << 63) + 5u);
  // A saturated threshold still admits the stream and never recompresses.
  InsertionOnlyStream s(2, 4, 1e-12, 8, kL2);
  EXPECT_EQ(s.threshold(), kMax);
  for (int i = 0; i < 50; ++i) s.insert(Point(8, static_cast<double>(i)));
  EXPECT_EQ(s.doublings(), 0);
  EXPECT_EQ(s.coreset().size(), 50u);
}

TEST(InsertionOnly, WeightConservation) {
  const auto inst = testing::tiny_planted(2, 3, 1, 51);
  const auto order = shuffled_order(inst.points.size(), 5);
  const auto s = feed(inst, order, 2, 3, 1.0, 1);
  EXPECT_EQ(total_weight(s.coreset()),
            static_cast<std::int64_t>(inst.points.size()));
}

TEST(InsertionOnly, SizeBoundHolds) {
  PlantedConfig cfg;
  cfg.n = 3000;
  cfg.k = 2;
  cfg.z = 8;
  cfg.dim = 1;
  cfg.seed = 53;
  const auto inst = make_planted(cfg);
  const auto order = shuffled_order(inst.points.size(), 7);
  const auto s = feed(inst, order, 2, 8, 1.0, 1);
  EXPECT_LE(s.coreset().size(), s.threshold());
  EXPECT_LE(s.peak_size(), s.threshold());
  EXPECT_GT(s.doublings(), 0);  // the instance is big enough to recompress
}

TEST(InsertionOnly, RIsLowerBoundOnOpt) {
  // Invariant from Lemma 17: r ≤ optk,z(P(t)) ≤ opt_hi at the end.
  PlantedConfig cfg;
  cfg.n = 2000;
  cfg.k = 3;
  cfg.z = 6;
  cfg.dim = 1;
  cfg.seed = 59;
  const auto inst = make_planted(cfg);
  const auto order = shuffled_order(inst.points.size(), 9);
  const auto s = feed(inst, order, 3, 6, 1.0, 1);
  EXPECT_LE(s.r(), inst.opt_hi + 1e-9);
}

TEST(InsertionOnly, CoveringPropertyAfterStream) {
  // Lemma 16: every inserted point is within ε·r of some representative.
  PlantedConfig cfg;
  cfg.n = 1500;
  cfg.k = 2;
  cfg.z = 5;
  cfg.dim = 1;
  cfg.seed = 61;
  const auto inst = make_planted(cfg);
  const auto order = shuffled_order(inst.points.size(), 11);
  const auto s = feed(inst, order, 2, 5, 1.0, 1);
  const double budget =
      std::max(1.0, s.r() > 0 ? 1.0 : 1.0) * s.r() + 1e-9;  // ε = 1
  for (const auto& wp : inst.points) {
    double best = 1e300;
    for (const auto& rep : s.coreset())
      best = std::min(best, kL2.dist(wp.p, rep.p));
    EXPECT_LE(best, budget);
  }
}

TEST(InsertionOnly, CoresetCoversWithinEpsOpt) {
  // End-to-end coreset property: planted centers cover the coreset within
  // (1+ε)·opt_hi with z outliers.
  PlantedConfig cfg;
  cfg.n = 1500;
  cfg.k = 2;
  cfg.z = 6;
  cfg.dim = 2;
  cfg.seed = 67;
  const auto inst = make_planted(cfg);
  const auto order = shuffled_order(inst.points.size(), 13);
  const auto s = feed(inst, order, 2, 6, 1.0, 2);
  const double r =
      radius_with_outliers(s.coreset(), inst.planted_centers, 6, kL2);
  EXPECT_LE(r, (1.0 + 1.0) * inst.opt_hi + 1e-9);
}

TEST(InsertionOnly, AdversarialOrderSameGuarantees) {
  PlantedConfig cfg;
  cfg.n = 1200;
  cfg.k = 2;
  cfg.z = 10;
  cfg.dim = 1;
  cfg.seed = 71;
  const auto inst = make_planted(cfg);
  const auto order = testing::adversarial_order(
      testing::strip_weights(inst.points), inst.outlier_indices);
  const auto s = feed(inst, order, 2, 10, 1.0, 1);
  EXPECT_LE(s.peak_size(), s.threshold());
  EXPECT_LE(s.r(), inst.opt_hi + 1e-9);
  EXPECT_EQ(total_weight(s.coreset()),
            static_cast<std::int64_t>(inst.points.size()));
}

TEST(InsertionOnly, DuplicatesAbsorbedBeforeBootstrap) {
  InsertionOnlyStream s(1, 0, 1.0, 1, kL2);
  for (int i = 0; i < 10; ++i) s.insert(Point{5.0});
  EXPECT_EQ(s.coreset().size(), 1u);
  EXPECT_EQ(s.coreset()[0].w, 10);
  EXPECT_DOUBLE_EQ(s.r(), 0.0);  // never saw k+z+1 distinct points
}

TEST(InsertionOnly, OursVsCeccarelloSpaceShape) {
  // Same stream, both policies: our threshold (additive z) must yield a
  // smaller-or-equal peak than the Ceccarello-style multiplicative one, and
  // strictly smaller when z is large.
  PlantedConfig cfg;
  cfg.n = 4000;
  cfg.k = 2;
  cfg.z = 40;
  cfg.dim = 1;
  cfg.seed = 73;
  const auto inst = make_planted(cfg);
  const auto order = shuffled_order(inst.points.size(), 15);
  const auto ours = feed(inst, order, 2, 40, 1.0, 1, ThresholdPolicy::Ours);
  const auto base =
      feed(inst, order, 2, 40, 1.0, 1, ThresholdPolicy::Ceccarello);
  EXPECT_LT(ours.threshold(), base.threshold());
  EXPECT_LE(ours.peak_size(), base.peak_size());
}

class StreamSweep : public ::testing::TestWithParam<testing::SweepParam> {};

TEST_P(StreamSweep, InvariantsAcrossParameters) {
  const auto p = GetParam();
  // The (dim > 1, eps < 0.5) cells are unreachable for the *size* part of
  // the sweep in principle at test scale: the recompression threshold
  // k(16/ε)^d + z is ≥ k·4096 representatives there, while n stays in the
  // hundreds (growing n past the threshold would put a Θ(n·|P*|) scan in
  // the suite's hot path).  Instead of skipping, those cells exercise the
  // assertions that bite from the very first insertion — the r ≤ opt lower
  // bound, weight conservation, and the end-to-end covering property
  // checked below for every cell.
  PlantedConfig cfg;
  cfg.n = 600 + static_cast<std::size_t>(p.k) *
                    (static_cast<std::size_t>(p.z) + 6);
  cfg.k = p.k;
  cfg.z = p.z;
  cfg.dim = p.dim;
  cfg.seed = p.seed;
  const auto inst = make_planted(cfg);
  const auto order = shuffled_order(inst.points.size(), p.seed);
  InsertionOnlyStream s(p.k, p.z, p.eps, p.dim, kL2);
  for (auto idx : order) {
    s.insert(inst.points[idx].p);
    ASSERT_LT(s.coreset().size(), s.threshold());
  }
  EXPECT_LE(s.r(), inst.opt_hi + 1e-9);
  EXPECT_EQ(total_weight(s.coreset()),
            static_cast<std::int64_t>(inst.points.size()));
  // Covering property (Lemma 16 end-to-end): the planted centers cover the
  // coreset within (1+ε)·opt_hi leaving outlier weight ≤ z.  Holds in
  // every cell — coreset reps sit within ε·r ≤ ε·opt_hi of input points,
  // and outlier reps cannot absorb cluster weight (the planted separation
  // dwarfs ε·opt_hi) — so it is a real assertion even where the threshold
  // is out of reach.
  const double cover =
      radius_with_outliers(s.coreset(), inst.planted_centers, p.z, kL2);
  EXPECT_LE(cover, (1.0 + p.eps) * inst.opt_hi + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Grid, StreamSweep,
                         ::testing::ValuesIn(testing::default_sweep()),
                         [](const auto& info) { return info.param.name(); });

}  // namespace
}  // namespace kc::stream
