// Quickstart: build an (ε,k,z)-coreset of a point set, solve k-center with
// outliers on the coreset, and compare with solving on the full data.
//
//   ./quickstart [--n 20000] [--k 4] [--z 50] [--eps 0.25] [--seed 1]
//
// This is the end-to-end pipeline of the paper in its simplest form, run
// through the engine layer: the "offline" pipeline is MBCConstruction
// (Algorithm 1) → offline Charikar greedy on the coreset, and the report
// carries the radius/quality/timing comparison.  `kcenter_cli --list`
// shows every other registered pipeline the same workload can drive.

#include <cstdio>

#include "example_support.hpp"
#include "kcenter.hpp"

int main(int argc, char** argv) {
  using namespace kc;
  const Flags flags(argc, argv);
  flags.require_known({"k", "z", "eps", "seed", "n"});
  engine::PipelineConfig cfg;
  cfg.k = flags.get<int>("k", 4);
  cfg.z = flags.get<std::int64_t>("z", 50);
  cfg.eps = flags.get<double>("eps", 0.25);
  cfg.dim = 2;
  cfg.seed = flags.get<std::uint64_t>("seed", 1);
  const auto n = flags.get<std::size_t>("n", 20000);
  const engine::Workload workload =
      examples::checked_workload("offline", n, cfg);

  std::printf("kcoreset quickstart: n=%zu k=%d z=%lld eps=%g\n", n, cfg.k,
              static_cast<long long>(cfg.z), cfg.eps);
  std::printf("  planted optimum bracket: [%.4f, %.4f]\n",
              workload.planted.opt_lo, workload.planted.opt_hi);

  // The offline pipeline: coreset build → solve on coreset → evaluate on
  // the full set → reference direct solve (with_direct_solve).
  const engine::PipelineResult res = engine::run("offline", workload, cfg);
  const auto& r = res.report;

  Table table({"stage", "points", "radius", "time (ms)"});
  table.add_row({"coreset build", fmt_count(static_cast<long long>(n)), "-",
                 fmt(r.build_ms, 1)});
  table.add_row({"solve on coreset",
                 fmt_count(static_cast<long long>(r.coreset_size)),
                 fmt(r.radius, 4), fmt(r.solve_ms, 1)});
  table.add_row({"solve on full set", fmt_count(static_cast<long long>(n)),
                 fmt(r.radius_direct, 4), fmt(r.get("direct_ms"), 1)});
  table.print();

  std::printf("\n  coreset size      : %zu points (%.2f%% of input)\n",
              r.coreset_size,
              100.0 * static_cast<double>(r.coreset_size) /
                  static_cast<double>(n));
  std::printf("  radius ratio      : %.4f (coreset pipeline / direct)\n",
              r.quality);
  std::printf("  speedup, solve    : %.1fx\n",
              r.solve_ms > 0 ? r.get("direct_ms") / r.solve_ms : 0.0);
  return 0;
}
