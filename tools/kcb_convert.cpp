// kcb_convert — produce, inspect, and verify `.kcb` dataset files
// (dataset/kcb.hpp): the on-disk container the engine streams out of core.
//
//   kcb_convert csv points.csv points.kcb       # strict CSV -> .kcb
//   kcb_convert mtx matrix.mtx points.kcb       # Matrix-Market dense array
//   kcb_convert generate points.kcb --n 10000000 --dim 2 --seed 1
//   kcb_convert info points.kcb                 # header + bbox, O(1)
//   kcb_convert verify points.kcb               # full data-checksum pass
//
// Conversions stream with fixed memory at any n; `generate` writes the
// deterministic clustered workload of dataset::GeneratedSource (point i is
// a pure function of (seed, i), so the same flags reproduce the same bytes
// on any machine).

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "kcenter.hpp"

namespace {

using namespace kc;

constexpr const char kUsage[] =
    "usage: kcb_convert <mode> <args>   (defaults in brackets)\n"
    "  csv <in.csv> <out.kcb>        convert a CSV of points (one point per\n"
    "                                line, comma-separated float64 columns;\n"
    "                                strict: malformed cells are errors)\n"
    "  mtx <in.mtx> <out.kcb>        convert a Matrix-Market dense array\n"
    "                                ('matrix array real general', n x dim)\n"
    "  generate <out.kcb>            write the deterministic clustered scale\n"
    "                                workload\n"
    "    --n/--dim/--k/--seed        size and shape [1000000/2/3/1]\n"
    "    --radius/--separation       cluster radius / spacing x radius [1/40]\n"
    "    --outlier-permille <p>      ~p/1000 points are far outliers [2]\n"
    "                                (n, dim, k >= 1; radius, separation\n"
    "                                finite and > 0; p <= 1000; every\n"
    "                                coordinate within +-1e150)\n"
    "  info <file.kcb>               print header + bounding box (O(1))\n"
    "  verify <file.kcb>             recompute the data checksum (reads the\n"
    "                                whole file); exit 1 on mismatch\n"
    "  an out-of-range flag or an unreadable or malformed input file is\n"
    "  'error: ...', exit 2\n"
    "  --help                        print this text and exit\n";

const std::vector<std::string>& known_flags() {
  static const std::vector<std::string> flags{
      "n",      "dim",        "k",
      "radius", "separation", "outlier-permille",
      "seed",   "help"};
  return flags;
}

int cmd_info(const std::string& path) {
  const dataset::MappedKcb map(path);
  const auto& h = map.header();
  std::printf("%s: kcb v%u, %llu points x %d dims (float64)\n", path.c_str(),
              h.version, static_cast<unsigned long long>(h.n), map.dim());
  std::printf("  data bytes     %llu (offset %llu, column stride %llu)\n",
              static_cast<unsigned long long>(h.n * h.dim * 8),
              static_cast<unsigned long long>(dataset::kKcbDataOffset),
              static_cast<unsigned long long>(h.n * 8));
  std::printf("  data checksum  %016llx\n",
              static_cast<unsigned long long>(h.data_checksum));
  std::printf("  bounding box\n");
  for (int j = 0; j < map.dim(); ++j)
    std::printf("    axis %d: [%.17g, %.17g]\n", j,
                map.box_lo()[static_cast<std::size_t>(j)],
                map.box_hi()[static_cast<std::size_t>(j)]);
  return 0;
}

int cmd_verify(const std::string& path) {
  const dataset::MappedKcb map(path);
  if (!map.verify_data()) {
    std::fprintf(stderr, "%s: data checksum MISMATCH (file corrupted)\n",
                 path.c_str());
    return 1;
  }
  std::printf("%s: data checksum OK (%llu points x %d dims)\n", path.c_str(),
              static_cast<unsigned long long>(map.size()), map.dim());
  return 0;
}

int cmd_generate(const std::string& path, const Flags& flags) {
  dataset::GeneratedConfig cfg;
  cfg.n = flags.get<std::uint64_t>("n", 1'000'000);
  cfg.dim = flags.get<int>("dim", 2);
  cfg.k = flags.get<int>("k", 3);
  cfg.cluster_radius = flags.get<double>("radius", 1.0);
  cfg.separation = flags.get<double>("separation", 40.0);
  cfg.outlier_permille = flags.get<std::uint32_t>("outlier-permille", 2);
  cfg.seed = flags.get<std::uint64_t>("seed", 1);
  // GeneratedSource's preconditions, checked at the edge (ranges in kUsage).
  const auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
  const char* bad = cfg.n < 1                       ? "n"
                    : cfg.dim < 1                   ? "dim"
                    : cfg.k < 1                     ? "k"
                    : !positive(cfg.cluster_radius) ? "radius"
                    : !positive(cfg.separation)     ? "separation"
                    : cfg.outlier_permille > 1000   ? "outlier-permille"
                                                    : nullptr;
  if (bad != nullptr) {
    std::fprintf(stderr, "error: --%s %s is out of range (see --help)\n", bad,
                 flags.get_string(bad, "").c_str());
    return 2;
  }

  dataset::GeneratedSource src(cfg);
  // A radius or lattice pitch (radius × separation) too large for the
  // coordinate bound puts points past it, or at ±inf or NaN.  The exact
  // box is known before the output file is opened, so nothing is written.
  for (int j = 0; j < cfg.dim; ++j) {
    const double lo = src.box_lo()[static_cast<std::size_t>(j)];
    const double hi = src.box_hi()[static_cast<std::size_t>(j)];
    if (!(lo >= -Point::kMaxAbsCoordinate && hi <= Point::kMaxAbsCoordinate &&
          lo <= hi)) {
      std::fprintf(stderr,
                   "error: --radius %s --separation %s puts axis %d of the "
                   "points at [%g, %g], past the coordinate bound %g\n",
                   flags.get_string("radius", "1").c_str(),
                   flags.get_string("separation", "40").c_str(), j, lo, hi,
                   Point::kMaxAbsCoordinate);
      return 2;
    }
  }
  Timer timer;
  const std::uint64_t written = dataset::write_kcb(path, src);
  const double ms = timer.millis();
  std::printf("%s: wrote %llu points x %d dims (%s) in %.1f ms\n",
              path.c_str(), static_cast<unsigned long long>(written), cfg.dim,
              src.describe().c_str(), ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  const auto unknown = flags.unknown_flags(known_flags());
  const auto& pos = flags.positional();
  if (!unknown.empty() || pos.empty()) {
    for (const auto& name : unknown)
      std::fprintf(stderr, "error: unknown flag '--%s'\n", name.c_str());
    std::fputs(kUsage, stderr);
    return 2;
  }

  const std::string& mode = pos.front();
  try {
    if ((mode == "csv" || mode == "mtx") && pos.size() == 3) {
      Timer timer;
      const std::uint64_t written =
          mode == "csv" ? kc::dataset::csv_to_kcb(pos[1], pos[2])
                        : kc::dataset::mtx_to_kcb(pos[1], pos[2]);
      std::printf("%s: wrote %llu points from %s in %.1f ms\n",
                  pos[2].c_str(), static_cast<unsigned long long>(written),
                  pos[1].c_str(), timer.millis());
      return 0;
    }
    if (mode == "generate" && pos.size() == 2)
      return cmd_generate(pos[1], flags);
    if (mode == "info" && pos.size() == 2) return cmd_info(pos[1]);
    if (mode == "verify" && pos.size() == 2) return cmd_verify(pos[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  std::fprintf(stderr, "error: unrecognized mode/arguments\n");
  std::fputs(kUsage, stderr);
  return 2;
}
