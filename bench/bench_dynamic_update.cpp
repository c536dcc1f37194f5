// APP-DYN — the fully dynamic (3+ε) k-center application (paper §1/§5):
// update and solve costs must be independent of the number of live points
// (they depend on the sketch and coreset sizes only), unlike the Ω(n)-space
// dynamic algorithms of [28, 6].

#include <cstdio>
#include <vector>

#include "bench_support.hpp"
#include "dynamic/dynamic_kcenter.hpp"
#include "util/timer.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace kc;
  using namespace kc::bench;
  using namespace kc::dynamic;
  const Flags flags(argc, argv);
  flags.require_known({"quick", "seed"});
  const bool quick = flags.has("quick");
  const std::uint64_t seed = flags.get<std::uint64_t>("seed", 1);

  banner("APP-DYN", "dynamic (3+eps) k-center: update/solve cost vs live "
                    "points", seed);

  DynamicCoresetOptions opt;
  opt.k = 2;
  opt.z = 8;
  opt.eps = 1.0;
  opt.delta = 1 << 10;
  opt.dim = 2;
  opt.seed = seed;

  std::vector<std::size_t> ns = quick
                                    ? std::vector<std::size_t>{512, 2048}
                                    : std::vector<std::size_t>{512, 2048, 8192,
                                                               16384};
  Table t({"live points", "sketch words", "update us", "solve ms",
           "coreset", "radius"});
  std::vector<double> xs, upd;
  for (const auto n : ns) {
    DynamicKCenter dyn(opt);
    const auto inst = standard_instance(n, opt.k, opt.z, seed + 1);
    const auto grid = discretize(inst.points, opt.delta);
    Timer t_updates;
    for (const auto& g : grid) dyn.insert(g);
    const double us_per_update =
        t_updates.micros() / static_cast<double>(grid.size());
    Timer t_solve;
    const auto sol = dyn.solve();
    const double solve_ms = t_solve.millis();
    t.add_row({fmt_count(static_cast<long long>(n)),
               fmt_count(static_cast<long long>(dyn.coreset().words())),
               fmt(us_per_update, 1), fmt(solve_ms, 1),
               fmt_count(static_cast<long long>(sol.coreset_size)),
               sol.ok ? fmt(sol.solution.radius, 3) : "-"});
    xs.push_back(static_cast<double>(n));
    upd.push_back(us_per_update);
  }
  t.print();
  if (xs.size() >= 2)
    shape_note("per-update cost slope in n: " + fmt(loglog_slope(xs, upd), 2) +
               " (≈0: independent of the live-set size; sketch words are "
               "exactly constant)");
  return 0;
}
