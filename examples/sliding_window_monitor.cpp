// Sliding-window example: monitor the last W events of a drifting stream
// (e.g. network measurements whose geography shifts over time, with bursty
// anomalies).  The De Berg–Monemizadeh–Zhong structure maintains, per
// radius level, the z+1 most recent members of each mini-cluster — the
// O((kz/ε^d)·log σ) space the paper's Theorem 30 proves necessary.
//
//   ./sliding_window_monitor [--n 20000] [--window 2000] [--k 3] [--z 8]
//                            [--eps 0.5]   (--window 0 = the whole stream)

#include <algorithm>
#include <cstdio>

#include "example_support.hpp"
#include "kcenter.hpp"

int main(int argc, char** argv) {
  using namespace kc;
  const Flags flags(argc, argv);
  flags.require_known({"n", "window", "k", "z", "eps"});
  const auto n = flags.get<std::int64_t>("n", 20000);
  engine::PipelineConfig cfg;
  cfg.window = flags.get<std::int64_t>("window", 2000);
  cfg.k = flags.get<int>("k", 3);
  cfg.z = flags.get<std::int64_t>("z", 8);
  cfg.eps = flags.get<double>("eps", 0.5);
  cfg.dim = 2;
  examples::check_config("stream-sliding", cfg);
  const std::int64_t W =
      cfg.window > 0 ? cfg.window : std::max<std::int64_t>(n, 1);
  const int k = cfg.k;
  const std::int64_t z = cfg.z;
  const double eps = cfg.eps;
  const Metric metric{Norm::L2};
  const std::int64_t report_every = std::max<std::int64_t>(n / 8, 1);

  std::printf("sliding-window monitor: %lld events, window %lld, k=%d z=%lld "
              "eps=%g\n\n",
              static_cast<long long>(n), static_cast<long long>(W), k,
              static_cast<long long>(z), eps);

  stream::SlidingWindow sw(k, z, eps, 2, W, /*r_min=*/0.25, /*r_max=*/512.0,
                           metric);
  Rng rng(23);
  Table table({"time", "level", "guess", "coreset", "radius",
               "stored records"});
  for (std::int64_t t = 1; t <= n; ++t) {
    // Drifting cluster centers + 1 % anomalies.
    Point p(2);
    if (rng.bernoulli(0.01)) {
      p[0] = rng.uniform_real(0, 2000);
      p[1] = rng.uniform_real(0, 2000);
    } else {
      const auto cluster = rng.uniform(static_cast<std::uint64_t>(k));
      const double drift = static_cast<double>(t) * 0.02;
      p[0] = 100.0 * static_cast<double>(cluster + 1) + drift +
             rng.normal() * 2.0;
      p[1] = 100.0 + rng.normal() * 2.0;
    }
    sw.insert(p, t);
    if (t % report_every == 0) {
      const auto q = sw.query(t);
      std::string radius = "-";
      if (q.level >= 0 && !q.coreset.empty()) {
        const Solution sol = solve_kcenter_outliers(q.coreset, k, z, metric);
        radius = fmt(sol.radius + q.cover_radius, 2);
      }
      table.add_row({fmt_count(static_cast<long long>(t)),
                     std::to_string(q.level), fmt(q.guess, 2),
                     fmt_count(static_cast<long long>(q.coreset.size())),
                     radius,
                     fmt_count(static_cast<long long>(sw.stored_records()))});
    }
  }
  table.print();
  std::printf("\n  levels: %d, cap/level: %zu mini-clusters, peak stored "
              "records: %zu\n",
              sw.levels(), sw.cap_per_level(), sw.peak_records());
  std::printf("  (the window holds %lld points; the structure stores far "
              "fewer)\n",
              static_cast<long long>(W));
  return 0;
}
