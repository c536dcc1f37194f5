// T1-MPC-RR — the R-round trade-off of Theorem 35 (Algorithm 7).
//
// Fixed n and m; R = 1..4.  Measured max machine storage should follow
// n^{1/(R+1)}·(k/ε^d+z)^{R/(R+1)} (decreasing in R), while the error
// parameter grows as (1+ε)^R − 1 and rounds increase.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_support.hpp"
#include "mpc/multi_round.hpp"
#include "mpc/partition.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace kc;
  using namespace kc::bench;
  using namespace kc::mpc;
  const Flags flags(argc, argv);
  flags.require_known({"quick", "seed", "eps", "k", "z", "m"});
  const bool quick = flags.has("quick");
  const std::uint64_t seed = flags.get<std::uint64_t>("seed", 1);
  const double eps = flags.get<double>("eps", 0.25);
  const int k = flags.get<int>("k", 3);
  const std::int64_t z = flags.get<std::int64_t>("z", 32);
  const std::size_t n = quick ? (1 << 13) : (1 << 15);
  const int m = flags.get<int>("m", 64);
  const Metric metric{Norm::L2};

  banner("T1-MPC-RR", "Theorem 35: rounds R vs storage per machine", seed);
  std::printf("n=%zu, m=%d, k=%d, z=%lld, eps=%g, d=2\n\n", n, m, k,
              static_cast<long long>(z), eps);

  const auto inst = standard_instance(n, k, z, seed);
  const auto parts =
      partition_points(inst.points, m, PartitionKind::RoundRobin, seed);

  Table table({"R", "beta", "eps_eff", "max machine words", "pred words",
               "comm words", "final size", "quality", "ms"});
  std::vector<double> rs, storage;
  for (int R = 1; R <= (quick ? 3 : 4); ++R) {
    MultiRoundOptions opt;
    opt.eps = eps;
    opt.rounds = R;
    Timer timer;
    const auto res = multi_round_coreset(parts, k, z, metric, {}, opt);
    const double ms = timer.millis();
    // Theorem 35 prediction (up to constants): n^{1/(R+1)}(k/ε^d+z)^{R/(R+1)}
    const double core_term =
        static_cast<double>(k) / std::pow(eps, 2) + static_cast<double>(z);
    const double pred = std::pow(static_cast<double>(n), 1.0 / (R + 1)) *
                        std::pow(core_term, static_cast<double>(R) / (R + 1));
    std::size_t max_words = res.stats.coordinator_words();
    for (auto w : res.stats.peak_words) max_words = std::max(max_words, w);
    table.add_row({std::to_string(R), std::to_string(res.beta),
                   fmt(res.eps_effective, 3),
                   fmt_count(static_cast<long long>(max_words)),
                   fmt_count(static_cast<long long>(pred)),
                   fmt_count(static_cast<long long>(res.stats.total_comm_words)),
                   fmt_count(static_cast<long long>(res.coreset.size())),
                   fmt(quality_ratio(inst.points, res.coreset, k, z, metric), 3),
                   fmt(ms, 0)});
    rs.push_back(static_cast<double>(R));
    storage.push_back(static_cast<double>(max_words));
  }
  table.print();
  if (storage.size() >= 2 && storage.back() < storage.front())
    shape_note("max storage decreases with R as Theorem 35 predicts "
               "(crossover once beta*coreset < n/m)");
  else
    shape_note("storage flat: per-round coresets already below n/m at this "
               "scale; increase n for the full trade-off");
  return 0;
}
