#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/charikar.hpp"
#include "core/gonzalez.hpp"
#include "core/radius_oracle.hpp"
#include "test_support.hpp"
#include "util/parallel.hpp"

namespace kc {
namespace {

const Metric kL2{Norm::L2};

class OracleKinds : public ::testing::TestWithParam<OracleKind> {};

TEST_P(OracleKinds, TwoSidedOnPlanted) {
  OracleOptions opt;
  opt.kind = GetParam();
  for (std::uint64_t seed : {10ULL, 20ULL, 30ULL}) {
    const auto inst = testing::tiny_planted(3, 4, 2, seed);
    const RadiusEstimate est =
        estimate_radius(inst.points, 3, 4, kL2, opt);
    EXPECT_GE(est.radius, inst.opt_lo - 1e-9) << "seed " << seed;
    EXPECT_LE(est.radius, est.rho * inst.opt_hi + 1e-9) << "seed " << seed;
    EXPECT_GE(est.rho, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, OracleKinds,
                         ::testing::Values(OracleKind::Charikar,
                                           OracleKind::Summary,
                                           OracleKind::Auto),
                         [](const auto& info) {
                           switch (info.param) {
                             case OracleKind::Charikar: return "Charikar";
                             case OracleKind::Summary: return "Summary";
                             case OracleKind::Auto: return "Auto";
                           }
                           return "?";
                         });

TEST(SummaryOracle, BudgetFormula) {
  // τ = k·⌈4/γ⌉^d + z + 1
  EXPECT_EQ(summary_center_budget(2, 5, 0.5, 2), 2 * 64 + 5 + 1);
  EXPECT_EQ(summary_center_budget(1, 0, 1.0, 1), 4 + 0 + 1);
}

TEST(SummaryOracle, LargeInstanceStillTwoSided) {
  PlantedConfig cfg;
  cfg.n = 4000;
  cfg.k = 3;
  cfg.z = 8;
  cfg.dim = 2;
  cfg.seed = 99;
  const auto inst = make_planted(cfg);
  OracleOptions opt;
  opt.kind = OracleKind::Summary;
  const RadiusEstimate est = estimate_radius(inst.points, 3, 8, kL2, opt);
  EXPECT_GE(est.radius, inst.opt_lo - 1e-9);
  EXPECT_LE(est.radius, est.rho * inst.opt_hi + 1e-9);
}

TEST(AutoOracle, SwitchesOnSize) {
  // Auto is the Charikar oracle at or below kAutoThreshold points and the
  // Summary oracle above it, and gives sane estimates in both regimes.
  OracleOptions opt;
  opt.kind = OracleKind::Auto;
  OracleOptions charikar;
  charikar.kind = OracleKind::Charikar;
  OracleOptions summary;
  summary.kind = OracleKind::Summary;

  const auto small = testing::tiny_planted(2, 2, 2, 5);
  ASSERT_LE(small.points.size(), kAutoThreshold);
  const RadiusEstimate a = estimate_radius(small.points, 2, 2, kL2, opt);
  EXPECT_GT(a.radius, 0.0);
  EXPECT_EQ(a.radius,
            estimate_radius(small.points, 2, 2, kL2, charikar).radius);

  PlantedConfig cfg;
  cfg.n = 1500;
  cfg.k = 2;
  cfg.z = 2;
  cfg.seed = 6;
  const auto big = make_planted(cfg);
  ASSERT_GT(big.points.size(), kAutoThreshold);
  const RadiusEstimate b = estimate_radius(big.points, 2, 2, kL2, opt);
  EXPECT_GE(b.radius, big.opt_lo - 1e-9);
  EXPECT_LE(b.radius, b.rho * big.opt_hi + 1e-9);
  EXPECT_EQ(b.radius, estimate_radius(big.points, 2, 2, kL2, summary).radius);
}

// The oracle spelled out guess by guess: one fresh Gonzalez run per
// Summary guess, Charikar on the input otherwise; the estimate keeps the
// centers of that Charikar run.
RadiusEstimate reference_estimate(const WeightedSet& pts, int k,
                                  std::int64_t z, const OracleOptions& opt) {
  auto charikar = [&](const WeightedSet& s) {
    CharikarResult res = charikar_oracle(s, k, z, kL2);
    return RadiusEstimate{res.radius, 3.0 * (1.0 + kCharikarBeta),
                          std::move(res.centers)};
  };
  const bool summary =
      opt.kind == OracleKind::Summary ||
      (opt.kind == OracleKind::Auto && pts.size() > kAutoThreshold);
  if (!summary) return charikar(pts);
  if (pts.empty()) return {0.0, 1.0, {}};
  const std::int64_t tau =
      summary_center_budget(k, z, kSummaryGamma, pts.front().p.dim());
  if (static_cast<std::int64_t>(pts.size()) <= tau) return charikar(pts);
  const GonzalezResult g = gonzalez(pts, static_cast<int>(tau), kL2);
  RadiusEstimate rs = charikar(gonzalez_summary(pts, g));
  return {rs.radius + g.delta.back(),
          rs.rho * (1.0 + kSummaryGamma) + kSummaryGamma,
          std::move(rs.centers)};
}

// The ladder is the loop of single estimates, bit for bit, for every kind,
// and both equal the guess-by-guess reference.
void expect_ladder_matches_loop(const WeightedSet& pts, int k,
                                const std::vector<std::int64_t>& zs,
                                const OracleOptions& opt) {
  const std::vector<RadiusEstimate> ladder =
      estimate_radius_ladder(pts, k, zs, kL2, opt);
  ASSERT_EQ(ladder.size(), zs.size());
  for (std::size_t j = 0; j < zs.size(); ++j) {
    const RadiusEstimate one = estimate_radius(pts, k, zs[j], kL2, opt);
    const RadiusEstimate ref = reference_estimate(pts, k, zs[j], opt);
    EXPECT_EQ(ladder[j].radius, one.radius) << "z = " << zs[j];
    EXPECT_EQ(ladder[j].rho, one.rho) << "z = " << zs[j];
    EXPECT_EQ(ladder[j].radius, ref.radius) << "z = " << zs[j];
    EXPECT_EQ(ladder[j].rho, ref.rho) << "z = " << zs[j];
    EXPECT_EQ(ladder[j].centers, one.centers) << "z = " << zs[j];
    EXPECT_EQ(ladder[j].centers, ref.centers) << "z = " << zs[j];
  }
}

std::vector<std::int64_t> outlier_guesses(int levels) {
  std::vector<std::int64_t> zs;
  for (int j = 0; j < levels; ++j) zs.push_back((std::int64_t{1} << j) - 1);
  return zs;
}

TEST_P(OracleKinds, LadderMatchesSingleEstimates) {
  OracleOptions opt;
  opt.kind = GetParam();
  PlantedConfig cfg;
  cfg.n = 700;
  cfg.k = 3;
  cfg.z = 20;
  cfg.dim = 2;
  cfg.seed = 12;
  const auto inst = make_planted(cfg);
  // τ_j = 3·8² + z_j + 1: guesses up to z = 255 (τ = 448) take the Summary
  // path, z = 511 (τ = 704 ≥ n) falls back to Charikar on the input.
  const auto zs = outlier_guesses(10);
  ASSERT_LT(summary_center_budget(3, zs[8], kSummaryGamma, 2), 700);
  ASSERT_GE(summary_center_budget(3, zs[9], kSummaryGamma, 2), 700);
  expect_ladder_matches_loop(inst.points, 3, zs, opt);
  // Unsorted guesses with a repeat, on a tiny instance.
  expect_ladder_matches_loop(testing::tiny_planted(2, 3, 2, 8).points, 2,
                             {7, 0, 3, 3}, opt);
}

TEST(SummaryOracle, LadderOnEmptyAndPooledInputs) {
  OracleOptions opt;
  opt.kind = OracleKind::Summary;
  const std::vector<std::int64_t> two{0, 1};
  for (const RadiusEstimate& est :
       estimate_radius_ladder(WeightedSet{}, 2, two, kL2, opt)) {
    EXPECT_EQ(est.radius, 0.0);
    EXPECT_EQ(est.rho, 1.0);
  }
  PlantedConfig cfg;
  cfg.n = 12000;  // above the kernels' parallel grain
  cfg.k = 2;
  cfg.z = 16;
  cfg.seed = 4;
  const auto inst = make_planted(cfg);
  const auto zs = outlier_guesses(6);
  const auto seq = estimate_radius_ladder(inst.points, 2, zs, kL2, opt);
  ThreadPool pool(8);
  opt.exec.pool = &pool;
  expect_ladder_matches_loop(inst.points, 2, zs, opt);
  const auto par = estimate_radius_ladder(inst.points, 2, zs, kL2, opt);
  for (std::size_t j = 0; j < zs.size(); ++j) {
    EXPECT_EQ(par[j].radius, seq[j].radius);
    EXPECT_EQ(par[j].rho, seq[j].rho);
  }
}

}  // namespace
}  // namespace kc
