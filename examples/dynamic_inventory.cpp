// Fully dynamic example: items appear in and disappear from a discrete
// warehouse grid [Δ]² (think: delivery drones that must park near k depots,
// tolerating z unreachable items).  Algorithm 5's sketches track the live
// set under inserts AND deletes in O((k/ε^d+z)·polylog Δ) space; after each
// batch we extract the relaxed coreset and re-solve — the paper's fully
// dynamic (3+ε) k-center application.
//
//   ./dynamic_inventory [--batches 20] [--batch 400] [--delta 1024]
//                       [--k 3] [--z 16] [--eps 0.5]

#include <algorithm>
#include <cstdio>
#include <deque>

#include "example_support.hpp"
#include "kcenter.hpp"

int main(int argc, char** argv) {
  using namespace kc;
  using namespace kc::dynamic;
  const Flags flags(argc, argv);
  flags.require_known({"batches", "batch", "delta", "k", "z", "eps", "seed"});
  const int batches = flags.get<int>("batches", 20);
  const int batch = flags.get<int>("batch", 400);
  engine::PipelineConfig cfg;
  cfg.delta = flags.get<std::int64_t>("delta", 1024);
  cfg.k = flags.get<int>("k", 3);
  cfg.z = flags.get<std::int64_t>("z", 16);
  cfg.eps = flags.get<double>("eps", 0.5);
  cfg.dim = 2;
  cfg.seed = flags.get<std::uint64_t>("seed", 5);
  examples::check_config("dynamic", cfg);
  DynamicCoresetOptions opt;
  opt.delta = cfg.delta;
  opt.k = cfg.k;
  opt.z = cfg.z;
  opt.eps = cfg.eps;
  opt.dim = cfg.dim;
  opt.seed = cfg.seed;

  std::printf("dynamic inventory on [%lld]^2: %d batches x %d updates, k=%d "
              "z=%lld eps=%g\n",
              static_cast<long long>(opt.delta), batches, batch, opt.k,
              static_cast<long long>(opt.z), opt.eps);

  DynamicKCenter dyn(opt);
  std::printf("  sketch storage: %zu words (s = %lld per grid)\n\n",
              dyn.coreset().words(),
              static_cast<long long>(dyn.coreset().sample_budget()));

  Rng rng(17);
  std::deque<GridPoint> alive;
  Table table({"batch", "live items", "coreset", "grid level", "radius",
               "batch ms"});
  for (int b = 0; b < batches; ++b) {
    Timer timer;
    for (int i = 0; i < batch; ++i) {
      // 70 % inserts near one of k hot spots, 30 % deletes of random items.
      const bool do_delete = !alive.empty() && rng.bernoulli(0.3);
      if (do_delete) {
        const std::size_t pick = rng.uniform(alive.size());
        dyn.erase(alive[pick]);
        alive[pick] = alive.back();
        alive.pop_back();
      } else {
        const auto hot = rng.uniform(static_cast<std::uint64_t>(opt.k));
        const std::int64_t cx =
            static_cast<std::int64_t>((hot + 1) * static_cast<std::uint64_t>(opt.delta) /
                                      (static_cast<std::uint64_t>(opt.k) + 1));
        GridPoint p;
        p.dim = 2;
        // Occasional far-flung item (unreachable outlier).
        if (rng.bernoulli(0.01)) {
          p.c[0] = static_cast<std::int64_t>(rng.uniform(static_cast<std::uint64_t>(opt.delta)));
          p.c[1] = static_cast<std::int64_t>(rng.uniform(static_cast<std::uint64_t>(opt.delta)));
        } else {
          const auto spread = static_cast<std::int64_t>(opt.delta / 20);
          p.c[0] = std::clamp<std::int64_t>(
              cx + rng.uniform_int(-spread, spread), 0, opt.delta - 1);
          p.c[1] = std::clamp<std::int64_t>(
              opt.delta / 2 + rng.uniform_int(-spread, spread), 0,
              opt.delta - 1);
        }
        dyn.insert(p);
        alive.push_back(p);
      }
    }
    const double ms = timer.millis();
    const auto sol = dyn.solve();
    table.add_row({std::to_string(b + 1),
                   fmt_count(static_cast<long long>(alive.size())),
                   fmt_count(static_cast<long long>(sol.coreset_size)),
                   std::to_string(sol.grid_level),
                   sol.ok ? fmt(sol.solution.radius, 2) : "-", fmt(ms, 1)});
  }
  table.print();
  std::printf("\n  final sketch storage: %zu words — independent of the %zu "
              "live items\n",
              dyn.coreset().words(), alive.size());
  return 0;
}
