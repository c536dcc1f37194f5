// ABL-GUESS — the outlier-guessing mechanism ablation (paper §3).
//
// Workload: "cloud and clusters" — every machine's slice of a wide uniform
// cloud looks like local outliers, but globally the cloud must largely be
// covered.  Three mechanisms:
//   * ours (Algorithm 2): one round of V_i tables; Σ(2^ĵ−1) ≤ 2z globally;
//   * guha  (local-z [29]): every machine budgets the full z locally;
//   * ceccarello: per-machine (k+z)(4/ε)^d Gonzalez summary.
// Reported: coordinator inbound volume (merged size), peak worker words,
// quality.  Paper shape: ours' outlier-candidate volume is governed by 2z
// (log z tables), the baselines pay per machine.

#include <cstdio>
#include <vector>

#include "bench_support.hpp"
#include "mpc/ceccarello.hpp"
#include "mpc/one_round.hpp"
#include "mpc/partition.hpp"
#include "mpc/two_round.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace kc;
  using namespace kc::bench;
  using namespace kc::mpc;
  const Flags flags(argc, argv);
  flags.require_known({"quick", "seed"});
  const bool quick = flags.has("quick");
  const std::uint64_t seed = flags.get<std::uint64_t>("seed", 1);
  const int k = 2;
  const double eps = 0.5;
  const Metric metric{Norm::L2};

  banner("ABL-GUESS", "outlier guessing: Algorithm 2's log(z+1) tables vs "
                      "local-z [29] vs multiplicative-z [11]", seed);

  std::vector<std::int64_t> zs = quick ? std::vector<std::int64_t>{24, 48}
                                       : std::vector<std::int64_t>{24, 48, 96,
                                                                   192};
  Table t({"mechanism", "z", "cloud pts", "merged@coord", "worker words",
           "sum 2^j-1", "quality", "ms"});
  for (const auto z : zs) {
    const std::size_t n_cluster = quick ? 1500 : 3000;
    const std::size_t n_cloud = static_cast<std::size_t>(5 * z);
    const WeightedSet pts = cloud_and_clusters(n_cluster, n_cloud, k, seed);
    const int m = 10;
    const auto parts = partition_points(pts, m, PartitionKind::RoundRobin, 0);

    {
      TwoRoundOptions opt;
      opt.eps = eps;
      Timer timer;
      const auto res = two_round_coreset(parts, k, z, metric, {}, opt);
      t.add_row({"ours (r-hat rule)", fmt_count(z),
                 fmt_count(static_cast<long long>(n_cloud)),
                 fmt_count(static_cast<long long>(res.merged.size())),
                 fmt_count(static_cast<long long>(res.stats.max_worker_words())),
                 fmt_count(res.sum_outlier_guesses),
                 fmt(quality_ratio(pts, res.coreset, k, z, metric), 3),
                 fmt(timer.millis(), 0)});
    }
    {
      OneRoundOptions opt;
      opt.eps = eps;
      Timer timer;
      const auto res = guha_local_z_coreset(parts, k, z, metric, {}, opt);
      t.add_row({"guha local-z", fmt_count(z),
                 fmt_count(static_cast<long long>(n_cloud)),
                 fmt_count(static_cast<long long>(res.merged.size())),
                 fmt_count(static_cast<long long>(res.stats.max_worker_words())),
                 "-", fmt(quality_ratio(pts, res.coreset, k, z, metric), 3),
                 fmt(timer.millis(), 0)});
    }
    {
      CeccarelloOptions opt;
      opt.eps = eps;
      Timer timer;
      const auto res = ceccarello_coreset(parts, k, z, metric, {}, opt);
      t.add_row({"ceccarello", fmt_count(z),
                 fmt_count(static_cast<long long>(n_cloud)),
                 fmt_count(static_cast<long long>(res.merged.size())),
                 fmt_count(static_cast<long long>(res.stats.max_worker_words())),
                 "-", fmt(quality_ratio(pts, res.coreset, k, z, metric), 3),
                 fmt(timer.millis(), 0)});
    }
  }
  t.print();
  shape_note("ours ships the fewest points to the coordinator and its "
             "outlier-slot total is capped at 2z; local-z keeps every "
             "locally-outlier-looking cloud point on every machine "
             "(linear-z), the paper's motivating gap");
  return 0;
}
