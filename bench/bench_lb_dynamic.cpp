// FIG5 — the fully dynamic lower-bound construction (Theorem 28):
// Ω((k/ε^d)·log Δ + z).
//
// For a ladder of Δ we instantiate the construction, report the number of
// scale groups g = ½log2 Δ − 2 and the per-cluster point count
// Ω((1/ε^d)·log Δ), check that the construction fits the universe
// (span ≤ Δ for admissible Δ), and verify the scale-m* continuation claim
// (the insertion-only contradiction replayed at scale 2^{m*}).  Finally we
// feed the instance to Algorithm 5 and report how many cells its finest
// decodable grid retains — growing with log Δ, matching the bound's shape.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_support.hpp"
#include "core/cost.hpp"
#include "dynamic/dynamic_coreset.hpp"
#include "geometry/grid.hpp"
#include "lowerbound/dynamic_lb.hpp"

int main(int argc, char** argv) {
  using namespace kc;
  using namespace kc::bench;
  using namespace kc::lowerbound;
  const Flags flags(argc, argv);
  flags.require_known({"quick", "seed"});
  const bool quick = flags.has("quick");
  const std::uint64_t seed = flags.get<std::uint64_t>("seed", 1);
  const Metric metric{Norm::L2};

  banner("FIG5", "Theorem 28 construction: Omega((k/eps^d) log Delta + z)",
         seed);

  std::vector<std::int64_t> deltas =
      quick ? std::vector<std::int64_t>{1 << 10, 1 << 13}
            : std::vector<std::int64_t>{1 << 10, 1 << 13, 1 << 16, 1 << 19};
  Table t1({"Delta", "g=groups", "pts/cluster", "|P(t)|", "span<=Delta",
            "ratio claim"});
  std::vector<double> lx, per_cluster;
  for (const auto delta : deltas) {
    DynamicLbConfig cfg;
    cfg.dim = 2;
    cfg.k = 5;
    cfg.z = 2;
    cfg.delta = delta;
    const auto lb = make_dynamic_lb(cfg);

    std::size_t cluster_pts = 0;
    for (std::size_t i = 0; i < lb.points.size(); ++i)
      if (lb.cluster_of[i] == 0) ++cluster_pts;

    // Scale-m* continuation claim at m* = groups/2.
    const int m_star = std::max(1, lb.groups / 2);
    Point p_star(cfg.dim);
    for (std::size_t i = 0; i < lb.points.size(); ++i)
      if (lb.group_of[i] == m_star && lb.cluster_of[i] == 0) {
        p_star = lb.points[i];
        break;
      }
    WeightedSet coreset;
    for (const auto& p : lb.after_deletions(m_star))
      if (!(p == p_star)) coreset.push_back({p, 1});
    for (const auto& wp : lb.continuation(p_star, m_star))
      coreset.push_back(wp);
    PointSet centers = lb.witness_centers(p_star, m_star);
    for (int c = 1; c < lb.clusters; ++c)
      for (std::size_t i = 0; i < lb.points.size(); ++i)
        if (lb.cluster_of[i] == c && lb.group_of[i] <= m_star) {
          centers.push_back(lb.points[i]);
          break;
        }
    const double r_est = radius_with_outliers(coreset, centers, cfg.z, metric);
    const double scale = std::pow(2.0, m_star);
    const double underestimate = std::max(scale * lb.r, lb.lambda * scale);
    const double true_lb = scale * (lb.h + lb.r) / 2.0;
    const bool ratio_ok = r_est <= underestimate + 1e-9 &&
                          underestimate < (1.0 - lb.config.eps) * true_lb +
                                              lb.lambda * scale;

    t1.add_row({fmt_count(delta), std::to_string(lb.groups),
                fmt_count(static_cast<long long>(cluster_pts)),
                fmt_count(static_cast<long long>(lb.points.size())),
                lb.coordinate_span() <= static_cast<double>(delta) ? "ok"
                                                                   : "n/a",
                ratio_ok ? "ok" : "FAIL"});
    lx.push_back(std::log2(static_cast<double>(delta)));
    per_cluster.push_back(static_cast<double>(cluster_pts));
  }
  std::printf("\n[Fig 5] construction over Delta (k=5, z=2, d=2, "
              "eps=1/16):\n");
  t1.print();
  if (lx.size() >= 2)
    shape_note("points-per-cluster ~ (log Delta)^" +
               fmt(loglog_slope(lx, per_cluster), 2) +
               " — the log Delta factor a dynamic coreset must pay "
               "(Theorem 28)");

  // ---- Algorithm 5 on the construction ------------------------------------
  Table t2({"Delta", "s budget", "cells kept", "grid level", "live"});
  for (const auto delta : quick ? std::vector<std::int64_t>{1 << 10}
                                : std::vector<std::int64_t>{1 << 10, 1 << 13}) {
    DynamicLbConfig cfg;
    cfg.dim = 2;
    cfg.k = 5;
    cfg.z = 2;
    cfg.delta = delta;
    const auto lb = make_dynamic_lb(cfg);
    dynamic::DynamicCoresetOptions opt;
    opt.k = cfg.k;
    opt.z = cfg.z;
    opt.eps = 1.0;
    opt.delta = 2 * delta;  // head-room for the shifted coordinates
    opt.dim = 2;
    opt.seed = seed;
    dynamic::DynamicCoreset dc(opt);
    // Shift construction into [Δ']^2 (outliers have negative x).
    double min_x = 0.0;
    for (const auto& p : lb.points) min_x = std::min(min_x, p[0]);
    for (const auto& p : lb.points) {
      Point q = p;
      q[0] -= min_x;
      dc.update(snap_to_grid(q, opt.delta), +1);
    }
    const auto q = dc.query();
    t2.add_row({fmt_count(delta), fmt_count(dc.sample_budget()),
                fmt_count(static_cast<long long>(q.coreset.size())),
                std::to_string(q.level), fmt_count(dc.live_points())});
  }
  std::printf("\n[Algorithm 5 on the LB instance]\n");
  t2.print();
  shape_note("the sketch keeps the whole instance at a fine level — "
             "the construction forces any (eps,k,z)-coreset to retain all "
             "non-outlier points (Claim 29)");
  return 0;
}
