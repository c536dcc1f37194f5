// Micro-benchmarks (google-benchmark): per-operation costs of the core
// primitives — MBC construction, radius oracles, streaming insertion,
// sketch updates/decodes, dynamic updates.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/charikar.hpp"
#include "core/gonzalez.hpp"
#include "core/mbc.hpp"
#include "dynamic/dynamic_coreset.hpp"
#include "sketch/f0_estimator.hpp"
#include "sketch/power_sum.hpp"
#include "sketch/sparse_recovery.hpp"
#include "stream/insertion_only.hpp"
#include "workload/generators.hpp"

namespace {

const kc::Metric kL2{kc::Norm::L2};

kc::PlantedInstance instance(std::size_t n) {
  kc::PlantedConfig cfg;
  cfg.n = n;
  cfg.k = 3;
  cfg.z = 16;
  cfg.dim = 2;
  cfg.seed = 42;
  return kc::make_planted(cfg);
}

void BM_Gonzalez(benchmark::State& state) {
  const auto inst = instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kc::gonzalez(inst.points, 64, kL2));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Gonzalez)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 14);

void BM_CharikarOracle(benchmark::State& state) {
  const auto inst = instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kc::charikar_oracle(inst.points, 3, 16, kL2));
  }
}
BENCHMARK(BM_CharikarOracle)->Arg(256)->Arg(512)->Arg(1024);

void BM_MbcConstruct(benchmark::State& state) {
  const auto inst = instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kc::mbc_construct(inst.points, 3, 16, 0.5, kL2));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MbcConstruct)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 14);

void BM_StreamInsert(benchmark::State& state) {
  const auto inst = instance(1 << 14);
  std::size_t i = 0;
  kc::stream::InsertionOnlyStream s(3, 16, 0.5, 2, kL2);
  for (auto _ : state) {
    s.insert(inst.points[i % inst.points.size()].p);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamInsert);

void BM_SparseUpdate(benchmark::State& state) {
  kc::sketch::SparseRecovery sk(static_cast<std::size_t>(state.range(0)), 1);
  std::uint64_t key = 0;
  for (auto _ : state) {
    sk.update(kc::splitmix64(key++), +1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SparseUpdate)->Arg(64)->Arg(512);

// The hot path Algorithm 5 drives: the caller has embedded the key and
// powered the shared evaluation point, so this is the four lockstep row
// hashes, the bucket reductions and the four cell updates.  Capacities are
// the F0 levels' s₀ = 64 and the turnstile benchmark's s = 434; keys are
// cell ids of [256]^2.
void BM_SparseRecoveryUpdate(benchmark::State& state) {
  kc::sketch::SparseRecovery sk(static_cast<std::size_t>(state.range(0)), 1);
  constexpr std::size_t kKeys = 4096;
  std::vector<std::uint64_t> xs(kKeys), rxs(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    xs[i] = kc::sketch::embed_key(kc::splitmix64(i) % 65536);
    rxs[i] = kc::sketch::pow_mod(sk.point(), xs[i]);
  }
  const std::uint64_t d = kc::sketch::signed_mod(+1);
  std::size_t i = 0;
  for (auto _ : state) {
    sk.add(xs[i], +1, d, rxs[i]);
    benchmark::ClobberMemory();
    i = (i + 1) % kKeys;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SparseRecoveryUpdate)->Arg(64)->Arg(434);

void BM_SparseDecode(benchmark::State& state) {
  kc::sketch::SparseRecovery sk(static_cast<std::size_t>(state.range(0)), 1);
  for (std::int64_t i = 0; i < state.range(0); ++i)
    sk.update(kc::splitmix64(static_cast<std::uint64_t>(i)), +1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sk.decode());
  }
}
BENCHMARK(BM_SparseDecode)->Arg(64)->Arg(512);

void BM_F0Update(benchmark::State& state) {
  kc::sketch::F0Estimator est(0.5, 1);
  std::uint64_t key = 0;
  for (auto _ : state) {
    est.update(kc::splitmix64(key++), +1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_F0Update);

void BM_PowerSumUpdate(benchmark::State& state) {
  kc::sketch::PowerSumSketch sk(static_cast<std::size_t>(state.range(0)));
  std::uint64_t key = 0;
  for (auto _ : state) {
    sk.update(key++ % 1024, +1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PowerSumUpdate)->Arg(16)->Arg(64);

void BM_DynamicUpdate(benchmark::State& state) {
  kc::dynamic::DynamicCoresetOptions opt;
  opt.k = 2;
  opt.z = 8;
  opt.eps = 1.0;
  opt.delta = state.range(0);
  opt.dim = 2;
  opt.seed = 7;
  kc::dynamic::DynamicCoreset dc(opt);
  kc::Rng rng(9);
  // Pre-generate points to keep the loop tight.
  std::vector<kc::GridPoint> pts;
  for (int i = 0; i < 1024; ++i) {
    kc::GridPoint p;
    p.dim = 2;
    p.c[0] = static_cast<std::int64_t>(rng.uniform(static_cast<std::uint64_t>(opt.delta)));
    p.c[1] = static_cast<std::int64_t>(rng.uniform(static_cast<std::uint64_t>(opt.delta)));
    pts.push_back(p);
  }
  std::size_t i = 0;
  std::int64_t sign = +1;
  for (auto _ : state) {
    dc.update(pts[i % pts.size()], static_cast<int>(sign));
    if (++i % pts.size() == 0) sign = -sign;  // keep the live set bounded
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DynamicUpdate)->Arg(1 << 8)->Arg(1 << 12);

// The same 1024 uniform points and alternating signs as BM_DynamicUpdate,
// applied as one update_batch per 1024 updates.  No point repeats within a
// batch, so level 0 coalesces nothing: this is the batched path's floor.
void BM_DynamicUpdateBatch(benchmark::State& state) {
  kc::dynamic::DynamicCoresetOptions opt;
  opt.k = 2;
  opt.z = 8;
  opt.eps = 1.0;
  opt.delta = state.range(0);
  opt.dim = 2;
  opt.seed = 7;
  kc::dynamic::DynamicCoreset dc(opt);
  kc::Rng rng(9);
  std::vector<kc::GridUpdate> inserts, deletes;
  for (int i = 0; i < 1024; ++i) {
    kc::GridPoint p;
    p.dim = 2;
    p.c[0] = static_cast<std::int64_t>(rng.uniform(static_cast<std::uint64_t>(opt.delta)));
    p.c[1] = static_cast<std::int64_t>(rng.uniform(static_cast<std::uint64_t>(opt.delta)));
    inserts.push_back({p, +1});
    deletes.push_back({p, -1});
  }
  bool insert = true;
  for (auto _ : state) {
    dc.update_batch(insert ? inserts : deletes);
    insert = !insert;  // keep the live set bounded
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(inserts.size()));
}
BENCHMARK(BM_DynamicUpdateBatch)->Arg(1 << 8)->Arg(1 << 12);

}  // namespace

BENCHMARK_MAIN();
