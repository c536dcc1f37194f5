// Tests of the deterministic threading layer: kc::ThreadPool semantics
// (chunking, exceptions, reuse), bit-equality of the chunk-parallel batch
// kernels against their scalar references, and the end-to-end guarantee the
// layer exists for — every registered engine pipeline produces identical
// reports at num_threads ∈ {1, 2, 8}.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/registry.hpp"
#include "geometry/kernels.hpp"
#include "test_support.hpp"
#include "util/parallel.hpp"
#include "workload/generators.hpp"

namespace kc {
namespace {

// Bitwise double equality: the layer's contract is bit-identical outputs,
// not approximate ones.
::testing::AssertionResult BitEqual(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ in bits";
}

TEST(ThreadPool, ResolveNumThreads) {
  EXPECT_EQ(ThreadPool(3).num_threads(), 3);
  EXPECT_GE(ThreadPool(0).num_threads(), 1);
  EXPECT_GE(ThreadPool(-5).num_threads(), 1);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (const std::size_t n : {0UL, 1UL, 7UL, 64UL, 1000UL}) {
    for (const std::size_t grain : {1UL, 3UL, 64UL, 5000UL}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, grain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " grain=" << grain;
    }
  }
}

TEST(ThreadPool, ChunkCountIsDeterministicAndGrainBounded) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.chunk_count(0, 1), 0u);
  EXPECT_EQ(pool.chunk_count(5, 100), 1u);   // one under-grain chunk
  EXPECT_EQ(pool.chunk_count(100, 10), 10u); // ceil(100/10)
  EXPECT_EQ(pool.chunk_count(100, 0), 16u);  // grain clamps to 1, cap 4*4
  EXPECT_EQ(pool.chunk_count(1000000, 1), 16u);  // capped at 4/thread
  // Pure function of (n, grain, num_threads): repeated calls agree.
  EXPECT_EQ(pool.chunk_count(12345, 7), pool.chunk_count(12345, 7));
}

TEST(ThreadPool, ChunkRangesArePureAndOrdered) {
  ThreadPool pool(3);
  const std::size_t n = 1001, grain = 10;
  const std::size_t chunks = pool.chunk_count(n, grain);
  std::vector<std::pair<std::size_t, std::size_t>> ranges(chunks);
  pool.parallel_for_chunks(
      n, grain, [&](std::size_t c, std::size_t begin, std::size_t end) {
        ranges[c] = {begin, end};
      });
  std::size_t expect_begin = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    EXPECT_EQ(ranges[c].first, expect_begin);
    EXPECT_LT(ranges[c].first, ranges[c].second);
    expect_begin = ranges[c].second;
  }
  EXPECT_EQ(expect_begin, n);
}

TEST(ThreadPool, SingleThreadRunsInlineWithSameChunks) {
  ThreadPool seq(1);
  ThreadPool par(8);
  // A sequential pool never spawns threads but must expose the same
  // parallel_for_chunks interface (its own chunk ids, ascending order).
  const std::size_t n = 100, grain = 9;
  std::vector<std::size_t> order;
  seq.parallel_for_chunks(n, grain,
                          [&](std::size_t c, std::size_t, std::size_t) {
                            order.push_back(c);
                          });
  ASSERT_EQ(order.size(), seq.chunk_count(n, grain));
  for (std::size_t c = 0; c < order.size(); ++c) EXPECT_EQ(order[c], c);
  EXPECT_EQ(seq.num_threads(), 1);
  EXPECT_EQ(par.num_threads(), 8);
}

TEST(ThreadPool, ExceptionFromLowestChunkPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  const std::size_t n = 1000;
  // Two chunks throw; the lowest-numbered one's exception must surface.
  try {
    pool.parallel_for_chunks(
        n, 10, [&](std::size_t c, std::size_t, std::size_t) {
          if (c == 3) throw std::runtime_error("chunk 3");
          if (c == 9) throw std::runtime_error("chunk 9");
        });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 3");
  }
  // Pool reuse after an exception: the next job runs normally.
  std::atomic<std::size_t> count{0};
  pool.parallel_for(n, 10, [&](std::size_t begin, std::size_t end) {
    count.fetch_add(end - begin);
  });
  EXPECT_EQ(count.load(), n);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(8, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      // Nested fan-out from a pool task: must complete (inline), not
      // deadlock on the shared queue.
      pool.parallel_for(10, 1, [&](std::size_t b, std::size_t e) {
        total.fetch_add(e - b);
      });
    }
  });
  EXPECT_EQ(total.load(), 80u);
}

TEST(ThreadPool, ReuseAcrossManyJobs) {
  ThreadPool pool(3);
  std::size_t sum = 0;
  for (int job = 0; job < 50; ++job) {
    std::atomic<std::size_t> count{0};
    pool.parallel_for(100, 7, [&](std::size_t begin, std::size_t end) {
      count.fetch_add(end - begin);
    });
    sum += count.load();
  }
  EXPECT_EQ(sum, 5000u);
}

// ---- Kernel bit-equality ------------------------------------------------

class ParallelKernelTest : public ::testing::TestWithParam<Norm> {};

TEST_P(ParallelKernelTest, RelaxMinKeysMatchesScalarBitForBit) {
  const Norm norm = GetParam();
  const WeightedSet pts = testing::make_uniform(5000, 3, 10.0, 7);
  const kernels::PointBuffer buf(pts);
  const std::size_t n = pts.size();
  ThreadPool pool(4);

  // Run several relaxation sweeps (as Gonzalez would) in both modes.
  std::vector<double> keys_a(n, std::numeric_limits<double>::infinity());
  std::vector<double> keys_b = keys_a;
  std::vector<std::uint32_t> assign_a(n, 0), assign_b(n, 0);

  std::size_t q_idx = 0;
  for (std::uint32_t label = 0; label < 8; ++label) {
    const double* q = pts[q_idx].p.coords().data();
    const auto scalar = kernels::with_norm(norm, [&]<Norm N>() {
      return kernels::relax_min_keys<N>(buf, q, label, keys_a.data(),
                                        assign_a.data());
    });
    const auto parallel = kernels::with_norm(norm, [&]<Norm N>() {
      return kernels::relax_min_keys_parallel<N>(buf, q, label, keys_b.data(),
                                                 assign_b.data(), &pool,
                                                 /*grain=*/512);
    });
    EXPECT_EQ(scalar.far_idx, parallel.far_idx) << "label " << label;
    EXPECT_TRUE(BitEqual(scalar.far_key, parallel.far_key));
    q_idx = scalar.far_idx;  // follow the Gonzalez traversal
  }
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(BitEqual(keys_a[i], keys_b[i])) << "i=" << i;
    ASSERT_EQ(assign_a[i], assign_b[i]) << "i=" << i;
  }
}

TEST_P(ParallelKernelTest, CountAndMarkWithinMatchScalar) {
  const Norm norm = GetParam();
  const WeightedSet pts = testing::make_uniform(4000, 2, 10.0, 11);
  const kernels::PointBuffer buf(pts);
  const std::size_t n = pts.size();
  ThreadPool pool(4);

  std::vector<std::uint32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0u);
  std::vector<std::int64_t> w(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = pts[i].w;
  const double* q = pts[42].p.coords().data();
  const double thresh = kernels::dist_to_key(norm, 2.5);

  const auto run = [&](auto&& fn) { return kernels::with_norm(norm, fn); };

  const std::int64_t scalar_count = run([&]<Norm N>() {
    return kernels::count_within<N>(buf, idx.data(), n, q, thresh, w.data(),
                                    nullptr);
  });
  EXPECT_GT(scalar_count, 0);

  // mark_within: covered bytes, removed weight, and the on_covered
  // invocation order must all match.
  std::vector<std::uint8_t> covered_a(n, 0), covered_b(n, 0);
  std::vector<std::uint32_t> order_a, order_b;
  const std::int64_t removed_a = run([&]<Norm N>() {
    return kernels::detail::mark_within<N>(
        buf, idx.data(), n, q, thresh, w.data(), covered_a.data(),
        [&](std::uint32_t j) { order_a.push_back(j); });
  });
  const std::int64_t removed_b = run([&]<Norm N>() {
    return kernels::mark_within_parallel<N>(
        buf, idx.data(), n, q, thresh, w.data(), covered_b.data(),
        [&](std::uint32_t j) { order_b.push_back(j); }, &pool,
        /*grain=*/256);
  });
  EXPECT_EQ(removed_a, removed_b);
  EXPECT_EQ(order_a, order_b);
  EXPECT_EQ(covered_a, covered_b);
  EXPECT_EQ(removed_a, scalar_count);  // same ball, nothing pre-covered
}

INSTANTIATE_TEST_SUITE_P(Norms, ParallelKernelTest,
                         ::testing::Values(Norm::L2, Norm::Linf, Norm::L1),
                         [](const ::testing::TestParamInfo<Norm>& info) {
                           return std::string(Metric{info.param}.name());
                         });

// ---- End-to-end: every pipeline is thread-count invariant ---------------

class PipelineThreadSweepTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(PipelineThreadSweepTest, ReportIsIdenticalAcrossThreadCounts) {
  const std::string name = GetParam();
  engine::PipelineConfig cfg;
  cfg.k = 3;
  cfg.z = 8;
  cfg.eps = 0.5;
  cfg.dim = 2;
  cfg.seed = 4242;
  cfg.machines = 6;
  cfg.partition_seed = 17;
  cfg.rounds = 2;
  cfg.delta = 1 << 10;

  const engine::Workload w = engine::make_workload(900, cfg);

  cfg.num_threads = 1;
  const engine::PipelineResult ref = engine::run(name, w, cfg);

  for (const int threads : {2, 8}) {
    cfg.num_threads = threads;
    const engine::PipelineResult res = engine::run(name, w, cfg);
    const auto& a = ref.report;
    const auto& b = res.report;
    SCOPED_TRACE(name + " @ " + std::to_string(threads) + " threads");
    EXPECT_TRUE(BitEqual(a.radius, b.radius));
    EXPECT_TRUE(BitEqual(a.radius_direct, b.radius_direct));
    EXPECT_TRUE(BitEqual(a.quality, b.quality));
    EXPECT_EQ(a.coreset_size, b.coreset_size);
    EXPECT_EQ(a.words, b.words);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.comm_words, b.comm_words);

    // The summary and the extracted centers too, coordinate by coordinate.
    ASSERT_EQ(ref.coreset.size(), res.coreset.size());
    for (std::size_t i = 0; i < ref.coreset.size(); ++i) {
      ASSERT_EQ(ref.coreset[i].w, res.coreset[i].w) << "i=" << i;
      for (int d = 0; d < cfg.dim; ++d)
        ASSERT_TRUE(BitEqual(ref.coreset[i].p[d], res.coreset[i].p[d]))
            << "i=" << i << " d=" << d;
    }
    ASSERT_EQ(ref.solution.centers.size(), res.solution.centers.size());
    for (std::size_t c = 0; c < ref.solution.centers.size(); ++c)
      for (int d = 0; d < cfg.dim; ++d)
        ASSERT_TRUE(
            BitEqual(ref.solution.centers[c][d], res.solution.centers[c][d]))
            << "c=" << c << " d=" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, PipelineThreadSweepTest,
    ::testing::ValuesIn(engine::registry().names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace kc
