// T1-STREAM — the insertion-only rows of Table 1, each row one engine
// pipeline run (stream-insertion under both threshold policies, and the
// McCutchen–Khuller baseline).
//
// Sweep 1 (z): peak stored points of Algorithm 3 (threshold k(16/ε)^d + z)
// vs the Ceccarello-style policy ((k+z)(16/ε)^d) vs McCutchen–Khuller
// (O(kz/ε) stored points).  Paper shape: ours grows *additively* in z, the
// baseline and MK multiplicatively.
//
// Sweep 2 (ε): all policies grow like (1/ε)^d; MK like 1/ε.
// Also reports end-solution quality for MK ((4+ε)-style) vs the coreset
// pipeline ((3+ε)(1+ε)-style).

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_support.hpp"
#include "engine/registry.hpp"
#include "util/csv.hpp"

namespace {

using namespace kc;
using namespace kc::bench;

struct StreamRow {
  engine::PipelineReport report;
  double peak = 0.0;  ///< peak stored points (the Table-1 space metric)
};

StreamRow run_insertion(const engine::Workload& w, engine::PipelineConfig cfg,
                        stream::ThresholdPolicy policy, const JsonLog& json) {
  cfg.policy = policy;
  const auto res = engine::run("stream-insertion", w, cfg);
  json.record("engine_pipeline", res.report.json_fields());
  return {res.report, res.report.get("peak_size")};
}

StreamRow run_mk(const engine::Workload& w, engine::PipelineConfig cfg,
                 const JsonLog& json) {
  cfg.with_direct_solve = false;  // MK quality is reported against opt_hi
  const auto res = engine::run("stream-mk", w, cfg);
  json.record("engine_pipeline", res.report.json_fields());
  return {res.report, res.report.get("peak_points")};
}

}  // namespace

int main(int argc, char** argv) {
  const auto setup =
      table1_setup(argc, argv, "T1-STREAM",
                   "Table 1 insertion-only rows: peak stored points",
                   /*default_k=*/3, /*default_eps=*/0.5);
  const std::uint64_t seed = setup.seed;
  const int dim = 1;  // d=1 keeps thresholds reachable at bench scale

  engine::PipelineConfig base;
  base.k = setup.k;
  base.dim = dim;

  // Optional raw-series dump for plotting: --csv <path>.
  std::unique_ptr<CsvWriter> csv;
  if (!setup.csv_path.empty()) {
    csv = std::make_unique<CsvWriter>(
        setup.csv_path,
        std::vector<std::string>{"sweep", "algorithm", "z", "eps", "peak",
                                 "bound"});
    if (!csv->ok()) {
      std::fprintf(stderr, "error: cannot write --csv %s\n",
                   setup.csv_path.c_str());
      return 2;
    }
  }

  // ---- Sweep 1: z --------------------------------------------------------
  const double eps1 = 1.0;
  std::vector<std::int64_t> zs = setup.quick
                                     ? std::vector<std::int64_t>{16, 64}
                                     : std::vector<std::int64_t>{16, 64, 256,
                                                                 512};
  Table t1({"algorithm", "z", "bound", "peak stored", "final", "quality",
            "ms"});
  std::vector<double> zxs, ours_peak, base_peak, mk_peak;
  for (const auto z : zs) {
    const std::size_t n = setup.quick ? 6000 : 20000;
    const auto w = table1_workload(n, setup.k, z, seed, dim, seed + 7);
    engine::PipelineConfig cfg = base;
    cfg.z = z;
    cfg.eps = eps1;
    {
      const auto row =
          run_insertion(w, cfg, stream::ThresholdPolicy::Ours, setup.json);
      t1.add_row({"ours", fmt_count(z),
                  fmt_count(static_cast<long long>(row.report.get("threshold"))),
                  fmt_count(static_cast<long long>(row.peak)),
                  fmt_count(static_cast<long long>(row.report.coreset_size)),
                  fmt(row.report.quality, 3), fmt(row.report.build_ms, 0)});
      zxs.push_back(static_cast<double>(z));
      ours_peak.push_back(row.peak);
      if (csv)
        csv->write_row({"z", "ours", std::to_string(z), fmt(eps1, 2),
                        std::to_string(static_cast<long long>(row.peak)),
                        std::to_string(static_cast<long long>(
                            row.report.get("threshold")))});
    }
    {
      const auto row = run_insertion(w, cfg, stream::ThresholdPolicy::Ceccarello,
                                     setup.json);
      t1.add_row({"ceccarello", fmt_count(z),
                  fmt_count(static_cast<long long>(row.report.get("threshold"))),
                  fmt_count(static_cast<long long>(row.peak)),
                  fmt_count(static_cast<long long>(row.report.coreset_size)),
                  fmt(row.report.quality, 3), fmt(row.report.build_ms, 0)});
      base_peak.push_back(row.peak);
      if (csv)
        csv->write_row({"z", "ceccarello", std::to_string(z), fmt(eps1, 2),
                        std::to_string(static_cast<long long>(row.peak)),
                        std::to_string(static_cast<long long>(
                            row.report.get("threshold")))});
    }
    {
      const auto row = run_mk(w, cfg, setup.json);
      const double opt_hi = w.planted.opt_hi;
      t1.add_row({"mccutchen-khuller", fmt_count(z), "-",
                  fmt_count(static_cast<long long>(row.peak)), "-",
                  fmt(opt_hi > 0 ? row.report.radius / opt_hi : 0.0, 3),
                  fmt(row.report.build_ms, 0)});
      mk_peak.push_back(row.peak);
      if (csv)
        csv->write_row({"z", "mccutchen-khuller", std::to_string(z),
                        fmt(eps1, 2),
                        std::to_string(static_cast<long long>(row.peak)),
                        "-"});
    }
  }
  std::printf("\n[Sweep 1] z-dependence (eps=%g, d=%d, k=%d):\n", eps1, dim,
              setup.k);
  t1.print();
  if (zxs.size() >= 2) {
    shape_note("peak-vs-z slope: ours " + fmt(loglog_slope(zxs, ours_peak), 2) +
               " (additive z), ceccarello " +
               fmt(loglog_slope(zxs, base_peak), 2) +
               ", mccutchen-khuller " + fmt(loglog_slope(zxs, mk_peak), 2) +
               " (multiplicative z)");
  }

  // ---- Sweep 2: ε --------------------------------------------------------
  const std::int64_t z2 = 32;
  std::vector<double> epses = setup.quick ? std::vector<double>{1.0, 0.5}
                                          : std::vector<double>{1.0, 0.5, 0.25};
  Table t2({"algorithm", "eps", "bound", "peak stored", "final", "quality"});
  for (const double eps : epses) {
    const std::size_t n = setup.quick ? 6000 : 20000;
    const auto w = table1_workload(n, setup.k, z2, seed + 3, dim, seed + 11);
    engine::PipelineConfig cfg = base;
    cfg.z = z2;
    cfg.eps = eps;
    {
      const auto row =
          run_insertion(w, cfg, stream::ThresholdPolicy::Ours, setup.json);
      t2.add_row({"ours", fmt(eps, 2),
                  fmt_count(static_cast<long long>(row.report.get("threshold"))),
                  fmt_count(static_cast<long long>(row.peak)),
                  fmt_count(static_cast<long long>(row.report.coreset_size)),
                  fmt(row.report.quality, 3)});
    }
    {
      const auto row = run_mk(w, cfg, setup.json);
      const double opt_hi = w.planted.opt_hi;
      t2.add_row({"mccutchen-khuller", fmt(eps, 2), "-",
                  fmt_count(static_cast<long long>(row.peak)), "-",
                  fmt(opt_hi > 0 ? row.report.radius / opt_hi : 0.0, 3)});
    }
  }
  std::printf("\n[Sweep 2] eps-dependence (z=%lld, d=%d):\n",
              static_cast<long long>(z2), dim);
  t2.print();
  shape_note("ours grows like k(16/eps)^d + z; the lower bound (Theorem 11) "
             "is Omega(k/eps^d + z) — same shape, constant apart");
  return 0;
}
