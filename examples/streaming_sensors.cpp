// Streaming example: a fleet of sensors reports positions one at a time;
// a fraction of readings are faulty (far-off outliers).  Algorithm 3
// maintains an (ε,k,z)-coreset in O(k/ε^d + z) space; every `--report`
// arrivals we extract a clustering from the coreset and print the current
// radius — without ever storing the stream.
//
//   ./streaming_sensors [--n 50000] [--k 4] [--z 60] [--eps 0.5]
//                       [--report 10000]   (0 = only after the last arrival)

#include <cstdio>

#include "example_support.hpp"
#include "kcenter.hpp"

int main(int argc, char** argv) {
  using namespace kc;
  const Flags flags(argc, argv);
  flags.require_known({"n", "k", "z", "eps", "seed", "report"});
  const auto n = flags.get<std::size_t>("n", 50000);
  engine::PipelineConfig cfg;
  cfg.k = flags.get<int>("k", 4);
  cfg.z = flags.get<std::int64_t>("z", 60);
  cfg.eps = flags.get<double>("eps", 0.5);
  cfg.dim = 2;
  cfg.seed = flags.get<std::uint64_t>("seed", 3);
  const auto report = flags.get<std::size_t>("report", 10000);
  const int k = cfg.k;
  const std::int64_t z = cfg.z;
  const double eps = cfg.eps;
  const Metric metric{Norm::L2};

  const PlantedInstance inst =
      examples::checked_workload("stream-insertion", n, cfg).planted;
  const auto order = shuffled_order(n, 11);

  std::printf("streaming sensors: n=%zu arrivals, k=%d clusters, z=%lld "
              "faulty readings, eps=%g\n",
              n, k, static_cast<long long>(z), eps);
  stream::InsertionOnlyStream s(k, z, eps, 2, metric);
  std::printf("  space budget (threshold): %zu points\n\n", s.threshold());

  Table table({"arrivals", "coreset", "r (lower bd)", "radius (coreset)",
               "ingest Mpts/s"});
  Timer timer;
  std::size_t seen = 0;
  for (auto idx : order) {
    s.insert(inst.points[idx].p);
    ++seen;
    if ((report > 0 && seen % report == 0) || seen == n) {
      const double secs = timer.seconds();
      const Solution sol = solve_kcenter_outliers(s.coreset(), k, z, metric);
      table.add_row({fmt_count(static_cast<long long>(seen)),
                     fmt_count(static_cast<long long>(s.coreset().size())),
                     fmt(s.r(), 4), fmt(sol.radius, 4),
                     fmt(static_cast<double>(seen) / secs / 1e6, 2)});
    }
  }
  table.print();

  std::printf("\n  peak coreset size : %zu (threshold %zu)\n", s.peak_size(),
              s.threshold());
  std::printf("  doublings of r    : %d\n", s.doublings());
  std::printf("  planted optimum   : [%.4f, %.4f]\n", inst.opt_lo,
              inst.opt_hi);
  return 0;
}
