#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "core_reference.hpp"
#include "mpc/partition.hpp"
#include "mpc/simulator.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace kc::mpc {
namespace {

// Each machine's point weights in arrival order; the partition tests give
// point i the weight i + 1, so this names every point on every machine.
std::vector<std::vector<std::int64_t>> weights_by_machine(
    const std::vector<WeightedSet>& parts) {
  std::vector<std::vector<std::int64_t>> out;
  for (const auto& part : parts) {
    out.emplace_back();
    for (const auto& wp : part) out.back().push_back(wp.w);
  }
  return out;
}

TEST(Simulator, RoutesMessages) {
  Simulator sim(3, 2);
  sim.round([&](int id, std::vector<Message>&, std::vector<Message>& out) {
    if (id != 0) {
      Message m;
      m.to = 0;
      m.scalars = {static_cast<double>(id)};
      out.push_back(std::move(m));
    }
  });
  EXPECT_EQ(sim.stats().rounds, 1);
  auto& inbox = sim.inbox(0);
  ASSERT_EQ(inbox.size(), 2u);
  double sum = 0;
  for (const auto& m : inbox) sum += m.scalars.at(0);
  EXPECT_DOUBLE_EQ(sum, 3.0);  // from machines 1 and 2
}

TEST(Simulator, CommunicationAccounting) {
  Simulator sim(2, 3);  // dim 3 → weighted point = 4 words
  sim.round([&](int id, std::vector<Message>&, std::vector<Message>& out) {
    if (id == 1) {
      Message m;
      m.to = 0;
      m.scalars = {1.0, 2.0};  // 2 words
      m.payload = PointPayload(WeightedSet{{Point{1.0, 2.0, 3.0}, 1}});  // 4
      out.push_back(std::move(m));
    }
  });
  EXPECT_EQ(sim.stats().total_comm_words, 6u);
  EXPECT_EQ(sim.stats().comm_words_per_round.at(0), 6u);
}

TEST(Simulator, SelfMessagesAreFree) {
  Simulator sim(2, 2);
  sim.round([&](int id, std::vector<Message>&, std::vector<Message>& out) {
    Message m;
    m.to = id;  // self
    m.scalars = {1.0, 2.0, 3.0};
    out.push_back(std::move(m));
  });
  EXPECT_EQ(sim.stats().total_comm_words, 0u);
  EXPECT_EQ(sim.inbox(0).size(), 1u);  // still delivered
}

TEST(Simulator, PeakStorageIsMax) {
  Simulator sim(2, 2);
  sim.record_storage(1, 100);
  sim.record_storage(1, 50);
  sim.record_storage(0, 10);
  EXPECT_EQ(sim.stats().peak_words.at(1), 100u);
  EXPECT_EQ(sim.stats().max_worker_words(), 100u);
  EXPECT_EQ(sim.stats().coordinator_words(), 10u);
}

TEST(Simulator, InboxClearedEachRound) {
  Simulator sim(2, 2);
  sim.round([&](int id, std::vector<Message>&, std::vector<Message>& out) {
    if (id == 1) {
      Message m;
      m.to = 0;
      m.scalars = {1.0};
      out.push_back(std::move(m));
    }
  });
  EXPECT_EQ(sim.inbox(0).size(), 1u);
  sim.round([&](int, std::vector<Message>&, std::vector<Message>&) {});
  EXPECT_TRUE(sim.inbox(0).empty());
  EXPECT_EQ(sim.stats().rounds, 2);
}

TEST(Partition, RoundRobinEven) {
  const WeightedSet pts = testing::make_uniform(103, 2, 10.0, 1);
  const auto parts = partition_points(pts, 10, PartitionKind::RoundRobin, 0);
  ASSERT_EQ(parts.size(), 10u);
  std::size_t total = 0;
  for (const auto& p : parts) {
    EXPECT_GE(p.size(), 10u);
    EXPECT_LE(p.size(), 11u);
    total += p.size();
  }
  EXPECT_EQ(total, 103u);
}

TEST(Partition, EvenSortedIsContiguousAndEven) {
  const WeightedSet pts = testing::make_uniform(100, 2, 10.0, 2);
  const auto parts = partition_points(pts, 4, PartitionKind::EvenSorted, 0);
  std::size_t total = 0;
  double prev = -std::numeric_limits<double>::infinity();
  for (const auto& part : parts) {
    EXPECT_EQ(part.size(), 25u);
    total += part.size();
    // Non-decreasing within each machine and across the blocks.
    for (const auto& wp : part) {
      EXPECT_GE(wp.p[0], prev);
      prev = wp.p[0];
    }
  }
  EXPECT_EQ(total, 100u);
}

TEST(Partition, RandomCoversAllPoints) {
  WeightedSet pts = testing::make_uniform(500, 2, 10.0, 3);
  for (std::size_t i = 0; i < pts.size(); ++i)
    pts[i].w = static_cast<std::int64_t>(i) + 1;
  const auto parts = partition_points(pts, 7, PartitionKind::Random, 42);
  ASSERT_EQ(parts.size(), 7u);
  // Every input point lands on exactly one machine, in input order there.
  std::vector<int> seen(pts.size(), 0);
  for (const auto& part : parts) {
    std::int64_t prev_w = 0;
    for (const auto& wp : part) {
      const auto i = static_cast<std::size_t>(wp.w - 1);
      ASSERT_LT(i, pts.size());
      ++seen[i];
      EXPECT_EQ(wp.p, pts[i].p);
      EXPECT_GT(wp.w, prev_w);
      prev_w = wp.w;
    }
  }
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_EQ(seen[i], 1) << "point " << i;
  // Deterministic for a fixed seed: the same points on the same machines.
  const auto parts2 = partition_points(pts, 7, PartitionKind::Random, 42);
  EXPECT_EQ(weights_by_machine(parts), weights_by_machine(parts2));
}

// x values that stress the key image of the radix sort: both signs, long
// runs of ties, ±0.0 (equal, so ordered by index), subnormals and the
// ±1e150 coordinate bound.
double stress_x(int pattern, Rng& rng) {
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  switch (pattern) {
    case 0: return rng.uniform_real(-1e3, 1e3);
    case 1: return static_cast<double>(rng.uniform(17)) - 8.0;  // grid ties
    case 2: {
      constexpr double kDup[] = {-2.5, 7.25, 1e-3};
      return kDup[rng.uniform(3)];
    }
    case 3: {
      constexpr double kZeros[] = {-0.0, 0.0, -1.0, 1.0};
      return kZeros[rng.uniform(4)];
    }
    case 4: {
      constexpr double kSub[] = {kTiny, -kTiny, 3 * kTiny, -3 * kTiny, 0.0,
                                 -0.0, std::numeric_limits<double>::min(),
                                 -std::numeric_limits<double>::min()};
      return kSub[rng.uniform(8)];
    }
    default: {
      constexpr double kWide[] = {1e150, -1e150, 1e-150, -1e-150, -0.0,
                                  0.0,   1.0,    -1.0};
      return kWide[rng.uniform(8)] *
             (rng.uniform(2) == 0 ? 1.0 : 0.5 + rng.uniform_real(0.0, 0.5));
    }
  }
}

TEST(Partition, EvenSortedMatchesStableKeyOrder) {
  for (int pattern = 0; pattern < 6; ++pattern) {
    for (const int m : {1, 3, 16}) {
      const auto mm = static_cast<std::size_t>(m);
      for (const std::size_t n : {std::size_t{0}, std::size_t{1}, mm - 1, mm,
                                  std::size_t{1000}, std::size_t{70000}}) {
        Rng rng(1000 * static_cast<std::uint64_t>(pattern) + n + mm);
        WeightedSet pts(n);
        for (std::size_t i = 0; i < n; ++i) {
          pts[i].p = Point(2);
          pts[i].p[0] = stress_x(pattern, rng);
          pts[i].p[1] = static_cast<double>(i);
          pts[i].w = static_cast<std::int64_t>(i) + 1;  // identifies point i
        }
        const auto parts = partition_points(pts, m, PartitionKind::EvenSorted,
                                            /*seed=*/0);
        ASSERT_EQ(parts.size(), mm);
        EXPECT_EQ(weights_by_machine(parts),
                  weights_by_machine(reference::even_sorted_partition(pts, m)))
            << "pattern " << pattern << ", n " << n << ", m " << m;
      }
    }
  }
}

TEST(Partition, AdversarialConcentratesOutliers) {
  // Planted outliers have the most-negative x coordinates, so EvenSorted
  // puts all of them on machine 0 — the adversarial case for Algorithm 2.
  PlantedConfig cfg;
  cfg.n = 400;
  cfg.k = 3;
  cfg.z = 12;
  cfg.seed = 9;
  const auto inst = make_planted(cfg);
  const auto parts =
      partition_points(inst.points, 8, PartitionKind::EvenSorted, 0);
  // Machine 0 holds the 50 smallest x's, which include all 12 outliers.
  std::size_t outliers_on_m0 = 0;
  for (const auto& wp : parts[0])
    if (wp.p[0] < -10.0) ++outliers_on_m0;
  EXPECT_EQ(outliers_on_m0, 12u);
}

}  // namespace
}  // namespace kc::mpc
