// kcoreset_cli — end-user tool: cluster a CSV of points with k centers and
// z outliers via a coreset pipeline, and write per-point labels.
//
//   # generate a demo file, then cluster it
//   ./kcoreset_cli --generate demo.csv --n 20000 --k 4 --z 60
//   ./kcoreset_cli demo.csv --k 4 --z 60 --eps 0.25 --out labels.csv
//
// Options:
//   --pipeline offline|stream   coreset construction (default offline)
//   --norm l2|linf|l1           metric (default l2)
//   --exact                     exact solve on the coreset (paper's (1+ε)
//                               path; only if the search space is small)
//
// Input: one point per line, comma-separated coordinates (2–8 columns).
// Output: the input columns plus a `label` column (−1 = outlier).  An
// output file (`--out`, `--generate`) that cannot be written is
// `error: …`, exit 2; `--out` is opened before the input is read, so an
// unwritable path costs no clustering run.  No input file is an error
// too (usage, exit 2).

#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "example_support.hpp"
#include "kcenter.hpp"

namespace {

// The shared strict parser (dataset/text_import.hpp): every cell must be a
// complete finite number, rejections name the line and column.
kc::WeightedSet read_csv_points(const std::string& path) {
  try {
    return kc::dataset::read_csv_points(path, /*weighted=*/false);
  } catch (const std::exception& e) {
    kc::examples::reject(e.what());
  }
}

// Opens `path` for writing, or exits 2.
std::ofstream open_output(const std::string& path) {
  std::ofstream out(path);
  if (!out)
    kc::examples::reject(("cannot open " + path + " for writing").c_str());
  return out;
}

// Flushes and closes `out`; exits 2 if any write to it failed.
void close_output(std::ofstream& out, const std::string& path) {
  out.close();
  if (out.fail()) kc::examples::reject(("failed writing " + path).c_str());
}

void generate_demo(const std::string& path, std::size_t n,
                   const kc::engine::PipelineConfig& cfg) {
  const auto inst = kc::examples::checked_workload("offline", n, cfg).planted;
  std::ofstream out = open_output(path);
  out << "# generated by kcoreset_cli: n=" << n << " k=" << cfg.k
      << " z=" << cfg.z << " (planted opt in [" << inst.opt_lo << ", "
      << inst.opt_hi << "])\n";
  for (const auto& wp : inst.points) {
    for (int i = 0; i < wp.p.dim(); ++i) {
      if (i) out << ',';
      out << wp.p[i];
    }
    out << '\n';
  }
  close_output(out, path);
  std::printf("wrote %zu points to %s\n", inst.points.size(), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kc;
  const Flags flags(argc, argv);
  flags.require_known({"generate", "n", "k", "z", "seed", "eps", "norm",
                       "pipeline", "exact", "out"},
                      /*max_positional=*/1);

  engine::PipelineConfig cfg;
  cfg.dim = 2;
  if (flags.has("generate")) {
    cfg.k = flags.get<int>("k", 4);
    cfg.z = flags.get<std::int64_t>("z", 60);
    cfg.seed = flags.get<std::uint64_t>("seed", 1);
    generate_demo(flags.get_string("generate", "demo.csv"),
                  flags.get<std::size_t>("n", 20000), cfg);
    return 0;
  }
  if (flags.positional().empty()) {
    std::fprintf(stderr,
                 "error: missing <points.csv>\n"
                 "usage: kcoreset_cli <points.csv> [--k K] [--z Z] "
                 "[--eps E] [--pipeline offline|stream] [--norm l2|linf|l1] "
                 "[--exact] [--out labels.csv]\n"
                 "       kcoreset_cli --generate demo.csv [--n N] ...\n");
    return 2;
  }

  cfg.k = flags.get<int>("k", 4);
  cfg.z = flags.get<std::int64_t>("z", 0);
  cfg.eps = std::min(1.0, flags.get<double>("eps", 0.25));
  if (!parse_norm(flags.get_string("norm", "l2"), &cfg.norm)) {
    std::fprintf(stderr, "error: unknown --norm '%s' (l2|l1|linf)\n",
                 flags.get_string("norm", "").c_str());
    return 2;
  }
  const std::string pipeline = flags.get_string("pipeline", "offline");
  examples::check_config(pipeline == "stream" ? "stream-insertion" : "offline",
                         cfg);
  const int k = cfg.k;
  const std::int64_t z = cfg.z;
  const double eps = cfg.eps;
  const Metric metric{cfg.norm};
  // An unwritable --out fails before any work, not after the report.
  const std::string out_path = flags.get_string("out", "labels.csv");
  std::ofstream out;
  if (flags.has("out")) out = open_output(out_path);

  const WeightedSet pts = read_csv_points(flags.positional().front());
  const int dim = pts.front().p.dim();
  std::printf("loaded %zu points (d=%d); k=%d z=%lld eps=%g norm=%s "
              "pipeline=%s\n",
              pts.size(), dim, k, static_cast<long long>(z), eps,
              metric.name(), pipeline.c_str());

  Timer timer;
  WeightedSet coreset;
  if (pipeline == "stream") {
    stream::InsertionOnlyStream s(k, z, eps, dim, metric);
    for (const auto& wp : pts) s.insert_weighted(wp.p, wp.w);
    coreset = s.coreset();
  } else {
    coreset = mbc_construct(pts, k, z, eps, metric).reps;
  }
  const double build_ms = timer.millis();

  timer.reset();
  const Solution sol =
      flags.has("exact")
          ? solve_kcenter_outliers_exact(coreset, k, z, metric)
          : solve_kcenter_outliers(coreset, k, z, metric);
  const double solve_ms = timer.millis();
  const double radius = radius_with_outliers(pts, sol.centers, z, metric);
  const Solution final_sol{sol.centers, radius};
  const Labeling lab = classify(pts, final_sol, metric);

  Table t({"metric", "value"});
  t.add_row(
      {"coreset size", fmt_count(static_cast<long long>(coreset.size()))});
  t.add_row({"radius", fmt(radius, 6)});
  t.add_row({"outlier weight", fmt_count(lab.outlier_weight)});
  t.add_row({"coreset build (ms)", fmt(build_ms, 1)});
  t.add_row({"solve (ms)", fmt(solve_ms, 1)});
  t.print();
  std::printf("centers:\n");
  for (const auto& c : final_sol.centers)
    std::printf("  %s\n", c.to_string().c_str());

  if (out.is_open()) {
    for (std::size_t i = 0; i < pts.size(); ++i) {
      for (int d = 0; d < dim; ++d) out << pts[i].p[d] << ',';
      out << lab.labels[i] << '\n';
    }
    close_output(out, out_path);
    std::printf("labels written to %s\n", out_path.c_str());
  }
  return 0;
}
