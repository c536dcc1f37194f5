// bench_scale — out-of-core ingest throughput and memory at scale.
//
// Pins the dataset-layer claims (BENCH_scale.json trajectory, gated in CI
// at smoke size by tools/check_bench.py --scale):
//
//  * fixed memory — streaming a `.kcb` through the dataset-capable
//    pipelines holds O(chunk) state, so peak RSS after the largest-n disk
//    run stays within a small factor of the smallest-n one (RSS is a
//    process-wide high-water mark: under an O(n) regression the 10M row
//    would sit ~10x above the 1M row, not within 1.5x);
//  * no ingest tax — streaming from disk sustains >= 50% of the in-memory
//    path's summary-build points/sec at the smallest size;
//  * bit-identity — disk and in-memory runs of the same pipeline report
//    identical result columns (coreset / words / radius).
//
// One "scale_convert" record per generated file, one "scale_ingest" record
// per (n, pipeline, source) run; every record carries peak_rss_mb (stamped
// by the JSON log).  Disk runs come first, in ascending n — the high-water
// mark makes that ordering load-bearing — and the in-memory comparison
// runs last, at the smallest size only (materializing the largest would
// defeat the point).
//
//   bench_scale --quick --json scale_smoke.json --json-tag smoke
//   bench_scale --json BENCH_scale.json --json-tag "PR8"  # committed rows
//
// Flags: --quick (200k/600k instead of 1M/10M), --dir <tmp dir for .kcb
// files> [.], --keep (leave the generated files), --k/--z/--eps/--seed,
// --json/--json-tag.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "dataset/source.hpp"
#include "engine/registry.hpp"
#include "util/rss.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace kc;

/// Points/sec of the summary-build phase (the ingest rate the gates
/// compare; solve/eval time is excluded — it does not scan the input).
double ingest_rate(std::uint64_t n, double build_ms) {
  return build_ms <= 0.0 ? 0.0
                         : static_cast<double>(n) / (build_ms * 1e-3);
}

void record_run(const bench::JsonLog& json, Table& table,
                const engine::PipelineReport& r, std::uint64_t n, int dim,
                const std::string& source) {
  const double rate = ingest_rate(n, r.build_ms);
  json.record("scale_ingest",
              {bench::JsonField("n", static_cast<long long>(n)),
               bench::JsonField("dim", dim),
               bench::JsonField("k", r.k),
               bench::JsonField("z", static_cast<long long>(r.z)),
               bench::JsonField("eps", r.eps),
               bench::JsonField("pipeline", r.pipeline),
               bench::JsonField("source", source),
               bench::JsonField("build_ms", r.build_ms),
               bench::JsonField("solve_ms", r.solve_ms),
               bench::JsonField("pts_per_sec", rate),
               bench::JsonField("coreset",
                                static_cast<long long>(r.coreset_size)),
               bench::JsonField("words", static_cast<long long>(r.words)),
               bench::JsonField("radius", r.radius)});
  table.add_row({fmt_count(static_cast<long long>(n)), r.pipeline, source,
                 fmt(r.build_ms, 1), fmt(rate / 1e6, 2),
                 fmt_count(static_cast<long long>(r.coreset_size)),
                 fmt(r.radius, 4),
                 fmt(static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0),
                     1)});
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  flags.require_known(
      {"quick", "seed", "json", "json-tag", "k", "z", "eps", "dir", "keep"});
  const bool quick = flags.has("quick");
  const auto seed = flags.get<std::uint64_t>("seed", 1);
  const bench::JsonLog json = bench::JsonLog::from_flags(flags);
  bench::banner("SCALE-INGEST",
                "out-of-core .kcb ingest: throughput, fixed-memory RSS, and "
                "disk-vs-memory result identity",
                seed);

  const std::vector<std::uint64_t> sizes =
      quick ? std::vector<std::uint64_t>{200'000, 600'000}
            : std::vector<std::uint64_t>{1'000'000, 10'000'000};

  engine::PipelineConfig cfg;
  cfg.k = flags.get<int>("k", 3);
  cfg.z = flags.get<std::int64_t>("z", 100);
  cfg.eps = flags.get<double>("eps", 0.5);
  cfg.dim = 2;
  cfg.seed = seed;
  // The direct solve needs the whole set in memory; both sources run
  // without it so their reports stay comparable column for column.
  cfg.with_direct_solve = false;

  const std::string dir = flags.get_string("dir", ".");
  const std::vector<std::string> pipelines{"stream-insertion", "dynamic"};
  const auto kcb_path = [&dir](std::uint64_t n) {
    return dir + "/scale_" + std::to_string(n) + ".kcb";
  };

  Table table({"n", "pipeline", "source", "build ms", "Mpts/s", "coreset",
               "radius", "peak RSS MB"});

  // Phase 1: convert + disk runs, ascending n.
  for (const std::uint64_t n : sizes) {
    dataset::GeneratedConfig gcfg;
    gcfg.n = n;
    gcfg.dim = cfg.dim;
    gcfg.k = cfg.k;
    gcfg.seed = seed;
    dataset::GeneratedSource gen(gcfg);

    const std::string path = kcb_path(n);
    Timer timer;
    const std::uint64_t written = dataset::write_kcb(path, gen);
    const double write_ms = timer.millis();
    json.record("scale_convert",
                {bench::JsonField("n", static_cast<long long>(written)),
                 bench::JsonField("dim", cfg.dim),
                 bench::JsonField("write_ms", write_ms),
                 bench::JsonField("pts_per_sec", ingest_rate(n, write_ms))});

    auto src = std::make_shared<dataset::KcbSource>(path);
    const engine::Workload w = engine::make_dataset_workload(src);
    for (const auto& name : pipelines)
      record_run(json, table, engine::run(name, w, cfg).report, n, cfg.dim,
                 "kcb");
  }

  // Phase 2: the in-memory comparison, smallest size only, after every
  // disk measurement (it raises the high-water mark past the chunk
  // budget — by design, that is what the disk rows must stay under).
  {
    dataset::KcbSource src(kcb_path(sizes.front()));
    const engine::Workload w = engine::materialize_workload(src);
    for (const auto& name : pipelines)
      record_run(json, table, engine::run(name, w, cfg).report,
                 sizes.front(), cfg.dim, "memory");
  }

  if (!flags.has("keep"))
    for (const std::uint64_t n : sizes) std::remove(kcb_path(n).c_str());

  table.print();
  bench::shape_note(
      "disk rows' peak RSS must be flat in n (fixed chunk budget), and the "
      "kcb/memory rows at the smallest n must agree in every result column");
  return 0;
}
