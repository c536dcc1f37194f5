// FIG1 / ABL-ORACLE — mini-ball coverings (paper §2).
//
// Part 1 reproduces Figure 1 numerically: a 2-cluster instance with 5
// outliers, its mini-ball covering, the representative weights, and the
// covering radius versus ε·opt.
//
// Part 2 is the scaling study: MBC size and build time vs n, ε, k, z —
// the Lemma-7 shape k(4ρ/ε)^d + z.
//
// Part 3 is the ABL-ORACLE ablation: Charikar-ladder oracle vs the
// Gonzalez summary oracle vs the oracle-free Gonzalez-packing construction
// (size / covering radius / oracle factor / time).
//
// Part 4 is the HOTPATH timing: the radius oracle, the covering pass, and
// the full construction at n=50k (8k under --quick), then the covering
// pass and an insertion-only stream ingest at d = 8, n=20k (4k under
// --quick), recorded to the JSON bench log (--json <path>) so the perf
// trajectory has committed points — see BENCH_hotpaths.json at the repo
// root.  Part 4c times both stream inserts at d = 2 on the drifting
// n = 1e6 instance (1e5 under --quick) of the perfbench `stream` workload:
// the insertion-only ingest, whose P* peaks at 3172 reps and so probes the
// cover's grid, and the sliding window at W = n/8 — the median of 5 runs
// each.
//
// Part 6 is the HOTPATH timing of the MPC input partition: EvenSorted and
// Random `partition_points` of n = 1e6 planted points (1e5 under --quick)
// over m = 16 machines, the median of 5 calls each.
//
// Part 7 is the HOTPATH timing of workload generation: `make_planted` and
// `make_drifting` at n = 1e6 (d = 2, L2) and n = 2e5 (d = 8, L∞), k = 3,
// z = 200, the median of 5 calls each.  It is skipped under --quick.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "core/mbc.hpp"
#include "core/verify.hpp"
#include "geometry/kernels.hpp"
#include "mpc/partition.hpp"
#include "geometry/box.hpp"
#include "stream/insertion_only.hpp"
#include "stream/sliding_window.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

/// The column-at-a-time key pass of Part 5's variant 1: one sweep per
/// coordinate column, dimension-ascending per point, so its keys carry the
/// same bits as the library kernels'.
template <kc::Norm N>
void column_keys(const kc::kernels::PointBuffer& buf, const double* q,
                 double* out) {
  const std::size_t n = buf.size();
  std::fill(out, out + n, 0.0);
  for (int j = 0; j < buf.dim(); ++j) {
    const double* c = buf.col(j);
    const double qj = q[j];
    for (std::size_t i = 0; i < n; ++i) {
      const double diff = c[i] - qj;
      if constexpr (N == kc::Norm::L2) {
        out[i] += diff * diff;
      } else if constexpr (N == kc::Norm::Linf) {
        const double a = std::fabs(diff);
        if (a > out[i]) out[i] = a;
      } else {
        out[i] += std::fabs(diff);
      }
    }
  }
}

// One timed variant of the Part-5 kernel-throughput measurement.
struct KernelTiming {
  double wall_ms = 0.0;
  double check = 0.0;  // anti-DCE checksum; must agree across variants
};

/// Times `sweeps` relax sweeps (rotating centers, persistent keys — the
/// Gonzalez inner-loop access pattern) through one of three bodies:
///  variant 0: the historical AoS scalar loop (branchy relax + inline
///             first-max-wins far tracking over row-major Points),
///  variant 1: the SoA column-at-a-time pass (column_keys +
///             branchy relax + far_scan),
///  variant 2: the dispatched fused SIMD path (relax_min_keys).
/// All three are semantically identical; the checksum pins that here too.
template <kc::Norm N>
KernelTiming kernel_relax_timing(const std::vector<kc::Point>& aos,
                                 const kc::kernels::PointBuffer& buf,
                                 std::size_t sweeps, int variant) {
  using namespace kc;
  const std::size_t n = aos.size();
  const int dim = buf.dim();
  std::vector<double> keys(n, 1e300), scratch(n);
  std::vector<std::uint32_t> assign(n, 0);
  KernelTiming out;
  Timer timer;
  for (std::size_t s = 0; s < sweeps; ++s) {
    const double* c = aos[(s * 37) % n].coords().data();
    const auto label = static_cast<std::uint32_t>(s);
    kernels::RelaxResult rr;
    if (variant == 0) {
      double far_key = -1.0;
      std::size_t far_idx = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const double k2 = kernels::raw_key<N>(aos[i].coords().data(), c, dim);
        if (k2 < keys[i]) {
          keys[i] = k2;
          assign[i] = label;
        }
        if (keys[i] > far_key) {
          far_key = keys[i];
          far_idx = i;
        }
      }
      rr = {far_idx, far_key};
    } else if (variant == 1) {
      column_keys<N>(buf, c, scratch.data());
      for (std::size_t i = 0; i < n; ++i) {
        if (scratch[i] < keys[i]) {
          keys[i] = scratch[i];
          assign[i] = label;
        }
      }
      rr = kernels::far_scan(keys.data(), 0, n);
    } else {
      rr = kernels::relax_min_keys<N>(buf, c, label, keys.data(),
                                      assign.data());
    }
    out.check += rr.far_key + static_cast<double>(rr.far_idx);
  }
  out.wall_ms = timer.millis();
  out.check += keys[n / 2] + static_cast<double>(assign[n / 4]);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kc;
  using namespace kc::bench;
  const Flags flags(argc, argv);
  flags.require_known({"quick", "seed", "hot-n", "json", "json-tag"});
  const bool quick = flags.has("quick");
  const std::uint64_t seed = flags.get<std::uint64_t>("seed", 1);
  const Metric metric{Norm::L2};
  const JsonLog json = JsonLog::from_flags(flags);

  banner("FIG1/ABL-ORACLE", "mini-ball coverings: the Figure-1 example, "
                            "Lemma-7 scaling, the oracle ablation, and the "
                            "hot-path timings", seed);

  // ---- Part 1: the Figure-1 example ---------------------------------------
  {
    const auto inst = standard_instance(300, 2, 5, seed);
    const double eps = 0.5;
    const MiniBallCovering mbc = mbc_construct(inst.points, 2, 5, eps, metric);
    std::printf("\n[Fig 1] k=2 balls, z=5 outliers, n=300, eps=%g:\n", eps);
    Table t({"quantity", "value"});
    t.add_row({"input points", "300"});
    t.add_row({"mini-balls (reps)",
               fmt_count(static_cast<long long>(mbc.reps.size()))});
    t.add_row({"total weight preserved",
               fmt_count(total_weight(mbc.reps))});
    t.add_row({"covering radius used", fmt(mbc.cover_radius, 4)});
    t.add_row({"max point-to-rep distance",
               fmt(max_assignment_dist(inst.points, mbc, metric), 4)});
    t.add_row({"eps * opt (budget, via opt_hi)", fmt(eps * inst.opt_hi, 4)});
    t.add_row({"oracle radius r (opt<=r<=rho*opt)", fmt(mbc.oracle_radius, 4)});
    t.add_row({"stated rho", fmt(mbc.rho, 2)});
    t.print();
    // The five heaviest reps illustrate the weight structure of Figure 1.
    WeightedSet sorted = mbc.reps;
    std::sort(sorted.begin(), sorted.end(),
              [](const WeightedPoint& a, const WeightedPoint& b) {
                return a.w > b.w;
              });
    std::printf("  heaviest representatives: ");
    for (std::size_t i = 0; i < sorted.size() && i < 5; ++i)
      std::printf("w=%lld at %s  ", static_cast<long long>(sorted[i].w),
                  sorted[i].p.to_string().c_str());
    std::printf("\n");
  }

  // ---- Part 2: Lemma-7 scaling ---------------------------------------------
  {
    std::printf("\n[Lemma 7 scaling] size vs (n, eps, z):\n");
    Table t({"n", "k", "z", "eps", "size", "bound k(4rho/eps)^d+z",
             "cover dist / eps*opt_hi", "build ms"});
    std::vector<std::size_t> ns = quick
                                      ? std::vector<std::size_t>{2000, 8000}
                                      : std::vector<std::size_t>{2000, 8000,
                                                                 32000};
    for (const auto n : ns) {
      const auto inst = standard_instance(n, 3, 16, seed + 1);
      Timer timer;
      const MiniBallCovering mbc =
          mbc_construct(inst.points, 3, 16, 0.5, metric);
      const double ms = timer.millis();
      t.add_row({fmt_count(static_cast<long long>(n)), "3", "16", "0.5",
                 fmt_count(static_cast<long long>(mbc.reps.size())),
                 fmt_count(static_cast<long long>(
                     mbc_size_bound(3, 16, 0.5, mbc.rho, 2))),
                 fmt(max_assignment_dist(inst.points, mbc, metric) /
                         (0.5 * inst.opt_hi),
                     3),
                 fmt(ms, 1)});
      json.record("lemma7_scaling",
                  {{"n", static_cast<long long>(n)},
                   {"k", 3},
                   {"z", 16},
                   {"d", 2},
                   {"eps", 0.5},
                   {"size", static_cast<long long>(mbc.reps.size())},
                   {"wall_ms", ms}});
    }
    for (const double eps : {1.0, 0.5, 0.25}) {
      const auto inst = standard_instance(8000, 3, 16, seed + 2);
      Timer timer;
      const MiniBallCovering mbc =
          mbc_construct(inst.points, 3, 16, eps, metric);
      t.add_row({"8,000", "3", "16", fmt(eps, 2),
                 fmt_count(static_cast<long long>(mbc.reps.size())),
                 fmt_count(static_cast<long long>(
                     mbc_size_bound(3, 16, eps, mbc.rho, 2))),
                 fmt(max_assignment_dist(inst.points, mbc, metric) /
                         (eps * inst.opt_hi),
                     3),
                 fmt(timer.millis(), 1)});
    }
    for (const std::int64_t z : {4LL, 64LL, 256LL}) {
      const auto inst = standard_instance(8000, 3, z, seed + 3);
      Timer timer;
      const MiniBallCovering mbc =
          mbc_construct(inst.points, 3, z, 0.5, metric);
      t.add_row({"8,000", "3", fmt_count(z), "0.5",
                 fmt_count(static_cast<long long>(mbc.reps.size())),
                 fmt_count(static_cast<long long>(
                     mbc_size_bound(3, z, 0.5, mbc.rho, 2))),
                 fmt(max_assignment_dist(inst.points, mbc, metric) /
                         (0.5 * inst.opt_hi),
                     3),
                 fmt(timer.millis(), 1)});
    }
    t.print();
    shape_note("size saturates in n, grows ~(1/eps)^d in eps and +z in z; "
               "covering distance stays below the eps*opt budget (ratio<1)");
  }

  // ---- Part 3: oracle ablation ---------------------------------------------
  {
    // n pinned at 4000: this comparison is about constants, not scale
    // (the Part-4 hot-path timing is where the Charikar path is pushed to
    // n=50k on top of the grid-accelerated greedy).
    std::printf("\n[ABL-ORACLE] radius-oracle choice on n=%d:\n", 4000);
    const auto inst = standard_instance(4000, 3, 24, seed + 4);
    Table t({"construction", "size", "r/opt_hi", "stated rho",
             "max cover / eps*opt_hi", "ms"});
    const double eps = 0.5;
    {
      OracleOptions o;
      o.kind = OracleKind::Charikar;
      Timer timer;
      const MiniBallCovering mbc =
          mbc_construct(inst.points, 3, 24, eps, metric, o);
      const double ms = timer.millis();
      t.add_row({"charikar-ladder",
                 fmt_count(static_cast<long long>(mbc.reps.size())),
                 fmt(mbc.oracle_radius / inst.opt_hi, 2), fmt(mbc.rho, 2),
                 fmt(max_assignment_dist(inst.points, mbc, metric) /
                         (eps * inst.opt_hi),
                     3),
                 fmt(ms, 1)});
      json.record("abl_oracle", {{"construction", "charikar-ladder"},
                                 {"n", 4000},
                                 {"k", 3},
                                 {"z", 24},
                                 {"d", 2},
                                 {"wall_ms", ms}});
    }
    {
      OracleOptions o;
      o.kind = OracleKind::Summary;
      Timer timer;
      const MiniBallCovering mbc =
          mbc_construct(inst.points, 3, 24, eps, metric, o);
      const double ms = timer.millis();
      t.add_row({"gonzalez-summary",
                 fmt_count(static_cast<long long>(mbc.reps.size())),
                 fmt(mbc.oracle_radius / inst.opt_hi, 2), fmt(mbc.rho, 2),
                 fmt(max_assignment_dist(inst.points, mbc, metric) /
                         (eps * inst.opt_hi),
                     3),
                 fmt(ms, 1)});
      json.record("abl_oracle", {{"construction", "gonzalez-summary"},
                                 {"n", 4000},
                                 {"k", 3},
                                 {"z", 24},
                                 {"d", 2},
                                 {"wall_ms", ms}});
    }
    {
      Timer timer;
      const MiniBallCovering mbc =
          mbc_via_gonzalez(inst.points, 3, 24, eps, metric);
      const double ms = timer.millis();
      t.add_row({"gonzalez-packing (oracle-free)",
                 fmt_count(static_cast<long long>(mbc.reps.size())), "-",
                 "1 (packing)",
                 fmt(max_assignment_dist(inst.points, mbc, metric) /
                         (eps * inst.opt_hi),
                     3),
                 fmt(ms, 1)});
      json.record("abl_oracle", {{"construction", "gonzalez-packing"},
                                 {"n", 4000},
                                 {"k", 3},
                                 {"z", 24},
                                 {"d", 2},
                                 {"wall_ms", ms}});
    }
    t.print();
    shape_note("all three satisfy the covering budget; the Charikar path "
               "gives the tightest r, the packing path avoids the oracle "
               "entirely at a τ = k(4/eps)^d + z size");
  }

  // ---- Part 4: hot-path timings (the perf trajectory) ----------------------
  {
    const auto hot_n = flags.get<std::size_t>("hot-n", quick ? 8000 : 50000);
    const int k = 3;
    const std::int64_t z = 16;
    const double eps = 0.5;
    std::printf("\n[HOTPATH] radius oracle + covering pass at n=%zu "
                "(Charikar oracle, d=2):\n", hot_n);
    const auto inst = standard_instance(hot_n, k, z, seed + 5);
    OracleOptions o;
    o.kind = OracleKind::Charikar;

    Timer t_oracle;
    const RadiusEstimate est = estimate_radius(inst.points, k, z, metric, o);
    const double oracle_ms = t_oracle.millis();

    const double cover_r = eps * est.radius / est.rho;
    Timer t_cover;
    const MiniBallCovering cover =
        mbc_with_radius(inst.points, cover_r, metric);
    const double cover_ms = t_cover.millis();

    Timer t_total;
    const MiniBallCovering mbc =
        mbc_construct(inst.points, k, z, eps, metric, o);
    const double total_ms = t_total.millis();

    Table t({"stage", "ms", "detail"});
    t.add_row({"estimate_radius (charikar)", fmt(oracle_ms, 1),
               "r=" + fmt(est.radius, 3) + " rho=" + fmt(est.rho, 2)});
    t.add_row({"mbc_with_radius", fmt(cover_ms, 1),
               "reps=" + fmt_count(static_cast<long long>(cover.reps.size()))});
    t.add_row({"mbc_construct (end-to-end)", fmt(total_ms, 1),
               "reps=" + fmt_count(static_cast<long long>(mbc.reps.size()))});
    t.print();
    const auto n_ll = static_cast<long long>(hot_n);
    json.record("hotpath_radius_oracle", {{"n", n_ll},
                                          {"k", k},
                                          {"z", static_cast<long long>(z)},
                                          {"d", 2},
                                          {"oracle", "charikar"},
                                          {"wall_ms", oracle_ms}});
    json.record("hotpath_mbc_cover",
                {{"n", n_ll},
                 {"k", k},
                 {"z", static_cast<long long>(z)},
                 {"d", 2},
                 {"radius", cover_r},
                 {"reps", static_cast<long long>(cover.reps.size())},
                 {"wall_ms", cover_ms}});
    json.record("hotpath_mbc_construct", {{"n", n_ll},
                                          {"k", k},
                                          {"z", static_cast<long long>(z)},
                                          {"d", 2},
                                          {"oracle", "charikar"},
                                          {"eps", eps},
                                          {"wall_ms", total_ms}});
  }

  // ---- Part 4b: the cover and the stream ingest at d = 8 -------------------
  // A grid probe visits 3^8 = 6561 cells, so where the cover switches from
  // its scan to the grid matters most here.  Drifting (time-ordered)
  // arrivals, as a stream sees them; the cover runs at the stream's final
  // join radius (ε/2)·r.
  {
    PlantedConfig pc;
    pc.n = quick ? 4000 : 20000;
    pc.k = 3;
    pc.z = 100;
    pc.dim = 8;
    pc.seed = seed + 8;
    const double eps = 0.5;
    std::printf("\n[HOTPATH] insertion-only stream ingest + covering pass at "
                "n=%zu, d=8 (drifting):\n", pc.n);
    const PlantedInstance inst = make_drifting(pc);

    Timer t_stream;
    stream::InsertionOnlyStream s(pc.k, pc.z, eps, pc.dim, metric);
    for (const auto& wp : inst.points) s.insert_weighted(wp.p, wp.w);
    const double stream_ms = t_stream.millis();

    const double cover_r = (eps / 2.0) * s.r();
    Timer t_cover;
    const MiniBallCovering cover =
        mbc_with_radius(inst.points, cover_r, metric);
    const double cover_ms = t_cover.millis();

    Table t({"stage", "ms", "detail"});
    t.add_row({"InsertionOnlyStream ingest", fmt(stream_ms, 1),
               "peak=" + fmt_count(static_cast<long long>(s.peak_size())) +
                   " doublings=" + fmt_count(s.doublings())});
    t.add_row({"mbc_with_radius", fmt(cover_ms, 1),
               "reps=" + fmt_count(static_cast<long long>(cover.reps.size()))});
    t.print();
    const auto n_ll = static_cast<long long>(pc.n);
    json.record("hotpath_stream_insert",
                {{"n", n_ll},
                 {"k", pc.k},
                 {"z", static_cast<long long>(pc.z)},
                 {"d", pc.dim},
                 {"eps", eps},
                 {"peak_size", static_cast<long long>(s.peak_size())},
                 {"doublings", s.doublings()},
                 {"wall_ms", stream_ms}});
    json.record("hotpath_mbc_cover",
                {{"n", n_ll},
                 {"k", pc.k},
                 {"z", static_cast<long long>(pc.z)},
                 {"d", pc.dim},
                 {"radius", cover_r},
                 {"reps", static_cast<long long>(cover.reps.size())},
                 {"wall_ms", cover_ms}});
  }

  // ---- Part 4c: both stream inserts at d = 2 --------------------------------
  {
    PlantedConfig pc;
    pc.n = quick ? 100000 : 1000000;
    pc.k = 3;
    pc.z = 100;
    pc.dim = 2;
    pc.seed = seed;
    const double eps = 0.5;
    const auto window = static_cast<std::int64_t>(pc.n / 8);
    constexpr int kReps = 5;
    std::printf("\n[HOTPATH] insertion-only and sliding-window ingest at "
                "n=%zu, d=2, W=%lld (drifting, median of %d runs):\n",
                pc.n, static_cast<long long>(window), kReps);
    const PlantedInstance inst = make_drifting(pc);
    // The sliding window's radius ladder, as stream-sliding sets it.
    Box box = Box::empty(pc.dim);
    for (const auto& wp : inst.points) box.extend(wp.p);
    const double r_max = box.diameter(metric);
    const double r_min = r_max / 4096.0;

    std::vector<double> stream_ms, window_ms;
    std::size_t peak_size = 0, peak_records = 0;
    int doublings = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      Timer t_stream;
      stream::InsertionOnlyStream s(pc.k, pc.z, eps, pc.dim, metric);
      for (const auto& wp : inst.points) s.insert_weighted(wp.p, wp.w);
      stream_ms.push_back(t_stream.millis());
      peak_size = s.peak_size();
      doublings = s.doublings();

      Timer t_window;
      stream::SlidingWindow sw(pc.k, pc.z, eps, pc.dim, window, r_min, r_max,
                               metric);
      std::int64_t t = 0;
      for (const auto& wp : inst.points) sw.insert(wp.p, ++t);
      window_ms.push_back(t_window.millis());
      peak_records = sw.peak_records();
    }
    std::sort(stream_ms.begin(), stream_ms.end());
    std::sort(window_ms.begin(), window_ms.end());

    Table t({"stage", "ms", "detail"});
    t.add_row({"InsertionOnlyStream ingest", fmt(stream_ms[kReps / 2], 1),
               "peak=" + fmt_count(static_cast<long long>(peak_size)) +
                   " doublings=" + fmt_count(doublings)});
    t.add_row({"SlidingWindow ingest", fmt(window_ms[kReps / 2], 1),
               "peak records=" +
                   fmt_count(static_cast<long long>(peak_records))});
    t.print();
    const auto n_ll = static_cast<long long>(pc.n);
    json.record("hotpath_stream_insert",
                {{"n", n_ll},
                 {"k", pc.k},
                 {"z", static_cast<long long>(pc.z)},
                 {"d", pc.dim},
                 {"eps", eps},
                 {"peak_size", static_cast<long long>(peak_size)},
                 {"doublings", doublings},
                 {"reps", kReps},
                 {"wall_ms", stream_ms[kReps / 2]}});
    json.record("hotpath_window_insert",
                {{"n", n_ll},
                 {"k", pc.k},
                 {"z", static_cast<long long>(pc.z)},
                 {"d", pc.dim},
                 {"eps", eps},
                 {"window", static_cast<long long>(window)},
                 {"peak_records", static_cast<long long>(peak_records)},
                 {"reps", kReps},
                 {"wall_ms", window_ms[kReps / 2]}});
  }

  // ---- Part 5: kernel throughput (points/sec, scalar vs SIMD) --------------
  {
    const auto hot_n = flags.get<std::size_t>("hot-n", quick ? 8000 : 50000);
    // Enough sweeps that each variant runs ~10⁷ point-relaxations.
    const std::size_t sweeps = std::max<std::size_t>(4, 12000000 / hot_n);
    std::printf("\n[KERNEL] relax sweep throughput at n=%zu (%zu sweeps, "
                "persistent keys, rotating centers):\n", hot_n, sweeps);
    Table t({"d", "norm", "variant", "ms", "Mpts/s", "vs scalar"});

    struct Config { int dim; Norm norm; const char* name; };
    const Config configs[] = {{2, Norm::L2, "l2"},
                              {3, Norm::L2, "l2"},
                              {8, Norm::L2, "l2"},
                              {2, Norm::L1, "l1"}};
    const char* variant_names[] = {"scalar_aos", "generic_soa", "simd_soa"};
    for (const auto& cfg : configs) {
      Rng rng(seed + 90 + static_cast<std::uint64_t>(cfg.dim));
      std::vector<Point> aos;
      aos.reserve(hot_n);
      kernels::PointBuffer buf(cfg.dim);
      buf.reserve(hot_n);
      for (std::size_t i = 0; i < hot_n; ++i) {
        Point p(cfg.dim);
        for (int j = 0; j < cfg.dim; ++j) p[j] = rng.uniform_real(0.0, 100.0);
        aos.push_back(p);
        buf.append(p);
      }
      KernelTiming r[3];
      for (int v = 0; v < 3; ++v) {
        r[v] = cfg.norm == Norm::L2
                   ? kernel_relax_timing<Norm::L2>(aos, buf, sweeps, v)
                   : kernel_relax_timing<Norm::L1>(aos, buf, sweeps, v);
        if (r[v].check != r[0].check)
          std::printf("  WARNING: %s checksum mismatch (%.17g vs %.17g)\n",
                      variant_names[v], r[v].check, r[0].check);
        const double pts = static_cast<double>(hot_n) *
                           static_cast<double>(sweeps);
        const double pts_per_sec = pts / (r[v].wall_ms * 1e-3);
        t.add_row({fmt_count(cfg.dim), cfg.name, variant_names[v],
                   fmt(r[v].wall_ms, 1), fmt(pts_per_sec * 1e-6, 1),
                   fmt(r[0].wall_ms / r[v].wall_ms, 2) + "x"});
        json.record("hotpath_kernel_throughput",
                    {{"n", static_cast<long long>(hot_n)},
                     {"d", cfg.dim},
                     {"norm", cfg.name},
                     {"variant", variant_names[v]},
                     {"sweeps", static_cast<long long>(sweeps)},
                     {"wall_ms", r[v].wall_ms},
                     {"pts_per_sec", pts_per_sec}});
      }
    }
    t.print();
    shape_note("the fused SoA path sustains the highest points/sec; the "
               "gap to scalar_aos widens with dimension (contiguous "
               "columns amortize the query broadcast)");
  }

  // ---- Part 6: the MPC input partition --------------------------------------
  {
    const std::size_t n = quick ? 100000 : 1000000;
    const int m = 16;
    constexpr int kReps = 5;
    std::printf("\n[HOTPATH] partition_points at n=%zu, m=%d (median of "
                "%d calls):\n", n, m, kReps);
    const auto inst = standard_instance(n, 3, 16, seed + 6);
    Table t({"partition", "ms", "largest part"});
    for (const mpc::PartitionKind kind :
         {mpc::PartitionKind::EvenSorted, mpc::PartitionKind::Random}) {
      std::vector<double> ms;
      std::size_t largest = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        Timer timer;
        const auto parts = mpc::partition_points(inst.points, m, kind, seed);
        ms.push_back(timer.millis());
        for (const auto& part : parts)
          largest = std::max(largest, part.size());
      }
      std::sort(ms.begin(), ms.end());
      const double median_ms = ms[kReps / 2];
      t.add_row({mpc::partition_name(kind), fmt(median_ms, 1),
                 fmt_count(static_cast<long long>(largest))});
      json.record("hotpath_partition",
                  {{"n", static_cast<long long>(n)},
                   {"m", m},
                   {"partition", mpc::partition_name(kind)},
                   {"reps", kReps},
                   {"wall_ms", median_ms}});
    }
    t.print();
  }

  // ---- Part 7: workload generation ------------------------------------------
  if (!quick) {
    constexpr int kReps = 5;
    std::printf("\n[HOTPATH] make_planted and make_drifting (median of %d "
                "calls):\n", kReps);
    struct Config { std::size_t n; int dim; Norm norm; const char* name; };
    const Config configs[] = {{1000000, 2, Norm::L2, "l2"},
                              {200000, 8, Norm::Linf, "linf"}};
    Table t({"generator", "n", "d", "norm", "ms"});
    for (const auto& cfg : configs) {
      PlantedConfig pc;
      pc.n = cfg.n;
      pc.k = 3;
      pc.z = 200;
      pc.dim = cfg.dim;
      pc.norm = cfg.norm;
      pc.seed = seed;
      for (const bool drifting : {false, true}) {
        std::vector<double> ms;
        for (int rep = 0; rep < kReps; ++rep) {
          Timer timer;
          const PlantedInstance inst =
              drifting ? make_drifting(pc) : make_planted(pc);
          ms.push_back(timer.millis());
        }
        std::sort(ms.begin(), ms.end());
        const double median_ms = ms[kReps / 2];
        const char* generator = drifting ? "drifting" : "planted";
        t.add_row({generator, fmt_count(static_cast<long long>(cfg.n)),
                   fmt_count(cfg.dim), cfg.name, fmt(median_ms, 1)});
        json.record("hotpath_generate",
                    {{"generator", generator},
                     {"n", static_cast<long long>(cfg.n)},
                     {"k", pc.k},
                     {"z", static_cast<long long>(pc.z)},
                     {"d", cfg.dim},
                     {"norm", cfg.name},
                     {"reps", kReps},
                     {"wall_ms", median_ms}});
      }
    }
    t.print();
  }
  return 0;
}
