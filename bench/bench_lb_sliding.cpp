// FIG6-7 — the sliding-window lower-bound construction (Theorem 30):
// Ω((kz/ε^d)·log σ) under L∞, answering the open question of [18].
//
// For each (k, z, ε, σ) we instantiate the construction, report the group
// count g = ½log σ − 1, subgroups s = λ^d − ((λ+1)/2)^d and the total point
// count Θ(k·z·s·g), verify σ' ≤ σ, and check the Claim-31 quantities: the
// adversarial sets P±_α sit at L∞ distance 2^{j*}ζ·2λ, the group diameter
// is 2^{j*}ζ(2λ−1), and the resulting optimum ratio equals 1−4ε < 1−3ε —
// the drop a (1±ε)-approximation cannot survive if it forgot an expiry.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_support.hpp"
#include "geometry/box.hpp"
#include "lowerbound/sliding_lb.hpp"

int main(int argc, char** argv) {
  using namespace kc;
  using namespace kc::bench;
  using namespace kc::lowerbound;
  const Flags flags(argc, argv);
  flags.require_known({"quick", "seed"});
  const bool quick = flags.has("quick");
  const std::uint64_t seed = flags.get<std::uint64_t>("seed", 1);
  const Metric linf{Norm::Linf};

  banner("FIG6-7", "Theorem 30 construction: Omega((kz/eps^d) log sigma) "
                   "under L-infinity", seed);

  struct Config {
    int k;
    std::int64_t z;
    double sigma;
  };
  std::vector<Config> configs =
      quick ? std::vector<Config>{{5, 4, 1 << 12}}
            : std::vector<Config>{{5, 4, 1 << 12},
                                  {5, 9, 1 << 12},
                                  {7, 4, 1 << 12},
                                  {5, 4, 1 << 16}};
  Table t({"k", "z", "sigma", "lambda", "g", "subgrp", "zeta", "|P|",
           "sigma'<=sigma", "gap dist", "diam", "ratio=1-4eps"});
  for (const auto& c : configs) {
    SlidingLbConfig cfg;
    cfg.dim = 2;
    cfg.k = c.k;
    cfg.z = c.z;
    cfg.sigma = c.sigma;
    const auto lb = make_sliding_lb(cfg);

    // Claim-31 quantities at j* = groups/2, subgroup 1 of cluster 0.
    const int j_star = std::max(1, lb.groups / 2);
    PointSet subgroup;
    for (std::size_t i = 0; i < lb.points.size(); ++i)
      if (lb.tags[i].cluster == 0 && lb.tags[i].group == j_star &&
          lb.tags[i].subgroup == 1)
        subgroup.push_back(lb.points[i]);
    const auto adv = lb.adversarial_sets(subgroup, j_star);
    double min_gap = 1e300;
    for (const auto& a : adv)
      for (const auto& s : subgroup)
        min_gap = std::min(min_gap, linf.dist(a, s));
    const double expected_gap =
        std::pow(2.0, j_star) * lb.zeta * 2.0 * lb.lambda;

    PointSet group_pts;
    for (std::size_t i = 0; i < lb.points.size(); ++i)
      if (lb.tags[i].cluster == 0 && lb.tags[i].group <= j_star)
        group_pts.push_back(lb.points[i]);
    const double diam = compute_spread(group_pts, linf).d_max;
    const double diam_bound =
        std::pow(2.0, j_star) * lb.zeta * (2.0 * lb.lambda - 1.0);

    const double ratio = (2.0 * lb.lambda - 1.0) / (2.0 * lb.lambda);
    const bool all_ok = lb.spread_ratio() <= cfg.sigma + 1e-6 &&
                        std::abs(min_gap - expected_gap) < 1e-6 &&
                        diam <= diam_bound + 1e-9 &&
                        std::abs(ratio - (1.0 - 4.0 * lb.config.eps)) < 1e-12;
    t.add_row({std::to_string(c.k), fmt_count(c.z),
               fmt_count(static_cast<long long>(c.sigma)),
               std::to_string(lb.lambda), std::to_string(lb.groups),
               std::to_string(lb.subgroups), std::to_string(lb.zeta),
               fmt_count(static_cast<long long>(lb.points.size())),
               lb.spread_ratio() <= cfg.sigma + 1e-6 ? "ok" : "FAIL",
               fmt(min_gap, 1), fmt(diam, 1),
               all_ok ? fmt(ratio, 4) : "FAIL"});
  }
  t.print();
  shape_note("|P| = (k-2d+1) * g * s * (z+1) = Theta((kz/eps^d) log sigma) "
             "distinct expiry times the algorithm must track; the ratio "
             "1-4eps < 1-3eps certifies the (1±eps) violation (Claim 31)");

  // Growth of the instance with each parameter (the Ω-shape itself).
  Table t2({"varying", "value", "|P| (points = expiry slots)"});
  for (const std::int64_t z : {4LL, 9LL, 16LL}) {
    SlidingLbConfig cfg;
    cfg.dim = 2;
    cfg.k = 5;
    cfg.z = z;
    cfg.sigma = 1 << 12;
    const auto lb = make_sliding_lb(cfg);
    t2.add_row({"z", fmt_count(z),
                fmt_count(static_cast<long long>(lb.points.size()))});
  }
  for (const double sig : {double(1 << 8), double(1 << 12), double(1 << 16)}) {
    SlidingLbConfig cfg;
    cfg.dim = 2;
    cfg.k = 5;
    cfg.z = 4;
    cfg.sigma = sig;
    const auto lb = make_sliding_lb(cfg);
    t2.add_row({"sigma", fmt_count(static_cast<long long>(sig)),
                fmt_count(static_cast<long long>(lb.points.size()))});
  }
  std::printf("\n[Instance growth]\n");
  t2.print();
  return 0;
}
