// kcenter_cli — the engine driver: run any registered pipeline (or all of
// them) on a generated workload under any metric, and report the Table-1
// quantities uniformly.  One JSON record per run with --json (the format
// the repo's BENCH_engine.json trajectory and the CI engine-smoke artifact
// use).
//
//   kcenter_cli --list
//   kcenter_cli --pipeline mpc-2round --n 8192 --m 64 --partition adversarial
//   kcenter_cli --pipeline all --n 4000 --k 3 --z 16 --eps 0.5 --norm linf
//               --json engine.json --json-tag "$(git rev-parse --short HEAD)"
//
// Unknown flags are an error (usage text + exit 2), so a typo'd flag in a
// CI smoke step fails the job instead of silently running the defaults.
// So is a numeric flag whose value does not parse whole into its type.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <exception>
#include <memory>
#include <new>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "kcenter.hpp"

namespace {

using namespace kc;

constexpr const char kUsage[] =
    "usage: kcenter_cli [flags]   (defaults in brackets)\n"
    "  --list                        print the pipeline catalogue and exit\n"
    "  --pipeline <name>|all [all]   registered pipeline name (see --list)\n"
    "  --n/--k/--z/--eps/--dim       problem parameters [4000/3/16/0.5/2];\n"
    "                                --dim is in [1, 8]\n"
    "  --norm l2|l1|linf             metric [l2]\n"
    "  --seed <s>                    instance + sketch seed [1]\n"
    "  --threads <N>                 thread-pool size for the MPC map phase\n"
    "                                and batch kernels, in [0, 256];\n"
    "                                0 = hardware [1]\n"
    "  --m/--partition/--rounds      MPC knobs [8/adversarial/2]; --rounds\n"
    "                                is the R of mpc-rround, in [1, 31]\n"
    "  --machines <m>                alias for --m\n"
    "  --backend local|wire          MPC message transport [local].\n"
    "                                wire delivers every message through an\n"
    "                                encode/decode of its checksummed wire\n"
    "                                frame, reporting measured\n"
    "                                wire_bytes/wire_ratio next to the\n"
    "                                predicted comm_words; result columns\n"
    "                                are byte-identical to local\n"
    "  --policy ours|ceccarello      insertion-only threshold policy [ours]\n"
    "  --window <W>                  sliding-window length (0 = whole stream)\n"
    "  --delta <D>                   dynamic universe side [256]\n"
    "  --det-recovery                dynamic: deterministic power-sum sketch\n"
    "  --input <csv|kcb>             cluster a file instead of a generated\n"
    "                                workload.  CSV: one point per line\n"
    "                                (strict parse; with --weighted the\n"
    "                                last column is an integer weight).\n"
    "                                .kcb (see kcb_convert): streamed out\n"
    "                                of core in fixed memory by dataset-\n"
    "                                capable pipelines; others materialize\n"
    "                                the file if it is small enough\n"
    "  --weighted                    --input: last CSV column is a weight\n"
    "  --fault-seed <s>              MPC fault-schedule seed [0]\n"
    "  --fault-crash/--fault-drop    per-attempt crash / message-drop\n"
    "                                probabilities [0/0]\n"
    "  --fault-truncate <p>          point-message truncation probability [0]\n"
    "  --fault-straggle <p>          per machine-round straggler prob [0]\n"
    "  --fault-retries <r>           transport retry budget [2]\n"
    "  --fault-policy retry|reassign|degrade\n"
    "                                recovery past the retry budget [retry]\n"
    "  --no-direct                   skip the direct solve (radius only)\n"
    "  --json <path> --json-tag <t>  append one JSON record per pipeline run\n"
    "  --help                        print this text and exit\n";

const std::vector<std::string>& known_flags() {
  static const std::vector<std::string> flags{
      "list",   "pipeline", "n",      "k",        "z",           "eps",
      "dim",    "norm",     "seed",   "threads",  "m",           "machines",
      "backend", "partition",
      "rounds", "policy",   "window", "delta",    "det-recovery",
      "no-direct", "json",  "json-tag", "input",  "weighted",
      "fault-seed", "fault-crash", "fault-drop", "fault-truncate",
      "fault-straggle", "fault-retries", "fault-policy", "help"};
  return flags;
}

Norm parse_norm(const std::string& name) {
  if (name == "l1") return Norm::L1;
  if (name == "linf") return Norm::Linf;
  if (name != "l2")
    std::fprintf(stderr, "warning: unknown norm '%s', using l2\n",
                 name.c_str());
  return Norm::L2;
}

mpc::PartitionKind parse_partition(const std::string& name) {
  if (name == "random") return mpc::PartitionKind::Random;
  if (name == "roundrobin") return mpc::PartitionKind::RoundRobin;
  if (name != "adversarial")
    std::fprintf(stderr, "warning: unknown partition '%s', using adversarial\n",
                 name.c_str());
  return mpc::PartitionKind::EvenSorted;
}

// Parses numeric flag `name` into `out`, which keeps its value when the
// flag is absent.  The whole value must parse as a T ("300x", "abc" and a
// value past T's range are errors, not a prefix or a wrapped cast).
template <typename T>
bool parse_number(const Flags& flags, const char* name, T& out) {
  if (!flags.has(name)) return true;
  const std::string v = flags.get_string(name, "");
  const char* end = v.data() + v.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(v.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    std::fprintf(stderr, "error: --%s %s is out of range\n", name, v.c_str());
    return false;
  }
  if (ec != std::errc{} || ptr != end || v.empty()) {
    std::fprintf(stderr, "error: --%s expects %s, got '%s'\n", name,
                 !std::is_integral_v<T>   ? "a number"
                 : std::is_unsigned_v<T> ? "a non-negative integer"
                                         : "an integer",
                 v.c_str());
    return false;
  }
  out = value;
  return true;
}

void print_catalogue() {
  std::printf("registered pipelines (kc::engine::registry()):\n\n");
  Table table({"name", "model", "description"});
  for (const auto& name : engine::registry().names()) {
    const auto pipeline = engine::registry().make(name);
    table.add_row({name, pipeline->model(), pipeline->description()});
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  const auto unknown = flags.unknown_flags(known_flags());
  if (!unknown.empty() || !flags.positional().empty()) {
    for (const auto& name : unknown)
      std::fprintf(stderr, "error: unknown flag '--%s'\n", name.c_str());
    // Single-dash typos ("-threads") and stray words land here: the CLI
    // takes no positional arguments, so any are a mistake.
    for (const auto& arg : flags.positional())
      std::fprintf(stderr, "error: unexpected argument '%s'\n", arg.c_str());
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (flags.has("list")) {
    print_catalogue();
    return 0;
  }

  // Every numeric flag parses whole into its own type; the defaults are
  // PipelineConfig's.  --machines is the transport-era alias of --m; given
  // both, --machines wins (it is the more explicit spelling).
  engine::PipelineConfig cfg;
  std::size_t n = 4000;
  const bool numbers_ok =
      parse_number(flags, "n", n) && parse_number(flags, "k", cfg.k) &&
      parse_number(flags, "z", cfg.z) && parse_number(flags, "eps", cfg.eps) &&
      parse_number(flags, "dim", cfg.dim) &&
      parse_number(flags, "seed", cfg.seed) &&
      parse_number(flags, "threads", cfg.num_threads) &&
      parse_number(flags, "m", cfg.machines) &&
      parse_number(flags, "machines", cfg.machines) &&
      parse_number(flags, "rounds", cfg.rounds) &&
      parse_number(flags, "window", cfg.window) &&
      parse_number(flags, "delta", cfg.delta) &&
      parse_number(flags, "fault-seed", cfg.fault_seed) &&
      parse_number(flags, "fault-crash", cfg.fault_crash) &&
      parse_number(flags, "fault-drop", cfg.fault_drop) &&
      parse_number(flags, "fault-truncate", cfg.fault_truncate) &&
      parse_number(flags, "fault-straggle", cfg.fault_straggle) &&
      parse_number(flags, "fault-retries", cfg.fault_retries);
  if (!numbers_ok) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  cfg.norm = parse_norm(flags.get_string("norm", "l2"));
  cfg.with_direct_solve = !flags.has("no-direct");
  if (cfg.machines < 1) {
    std::fprintf(stderr, "error: --machines must be >= 1 (got %d)\n",
                 cfg.machines);
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (cfg.k < 1) {
    std::fprintf(stderr, "error: --k must be >= 1 (got %d)\n", cfg.k);
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (cfg.z < 0) {
    std::fprintf(stderr, "error: --z must be >= 0 (got %lld)\n",
                 static_cast<long long>(cfg.z));
    std::fputs(kUsage, stderr);
    return 2;
  }
  // The generator and Point hold at most kMaxDim coordinates.
  if (cfg.dim < 1 || cfg.dim > Point::kMaxDim) {
    std::fprintf(stderr, "error: --dim must be in [1, %d] (got %d)\n",
                 Point::kMaxDim, cfg.dim);
    std::fputs(kUsage, stderr);
    return 2;
  }
  // The pool starts this many OS threads up front.
  constexpr int kMaxThreads = 256;
  if (cfg.num_threads < 0 || cfg.num_threads > kMaxThreads) {
    std::fprintf(stderr, "error: --threads must be in [0, %d] (got %d)\n",
                 kMaxThreads, cfg.num_threads);
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (!mpc::parse_backend(flags.get_string("backend", "local"),
                          &cfg.backend)) {
    std::fprintf(stderr, "error: unknown --backend '%s' (local|wire)\n",
                 flags.get_string("backend", "local").c_str());
    std::fputs(kUsage, stderr);
    return 2;
  }
  // ε ∈ (0, 1] (the negated test also rejects NaN), R ≥ 1, W ≥ 0 and
  // Δ ≥ 2 are contracts of the structures these flags configure: reject a
  // value outside them here instead of aborting inside a pipeline.
  if (!(cfg.eps > 0.0 && cfg.eps <= 1.0)) {
    std::fprintf(stderr, "error: --eps must be in (0, 1] (got %g)\n", cfg.eps);
    std::fputs(kUsage, stderr);
    return 2;
  }
  // β = max(2, ⌈m^{1/R}⌉) at least halves the active machines per stage, so
  // any int m is down to one machine after 31 stages; every later stage is
  // one more lone recompression at machine 0 (about a millisecond each).
  constexpr int kMaxRounds = 31;
  if (cfg.rounds < 1 || cfg.rounds > kMaxRounds) {
    std::fprintf(stderr, "error: --rounds must be in [1, %d] (got %d)\n",
                 kMaxRounds, cfg.rounds);
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (cfg.window < 0) {
    std::fprintf(stderr, "error: --window must be >= 0 (got %lld)\n",
                 static_cast<long long>(cfg.window));
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (cfg.delta < 2) {
    std::fprintf(stderr, "error: --delta must be >= 2 (got %lld)\n",
                 static_cast<long long>(cfg.delta));
    std::fputs(kUsage, stderr);
    return 2;
  }
  cfg.partition = parse_partition(flags.get_string("partition", "adversarial"));
  cfg.partition_seed = cfg.seed;
  cfg.policy = flags.get_string("policy", "ours") == "ceccarello"
                   ? stream::ThresholdPolicy::Ceccarello
                   : stream::ThresholdPolicy::Ours;
  cfg.deterministic_recovery = flags.has("det-recovery");
  if (!mpc::parse_recovery_policy(flags.get_string("fault-policy", "retry"),
                                  &cfg.fault_policy)) {
    std::fprintf(stderr,
                 "error: unknown --fault-policy '%s' (retry|reassign|"
                 "degrade)\n",
                 flags.get_string("fault-policy", "retry").c_str());
    return 2;
  }
  const bool faults_active = cfg.fault_config().active();

  // A generated (planted) instance holds k clusters of at least z+1 points
  // plus z outliers: n ≥ k(z+1) + z, checked without overflow.
  const auto zu = static_cast<std::size_t>(cfg.z);
  if (!flags.has("input") &&
      (n < zu || (n - zu) / (zu + 1) < static_cast<std::size_t>(cfg.k))) {
    std::fprintf(stderr,
                 "error: --n %zu is too small for --k %d --z %lld: a "
                 "generated instance needs n >= k(z+1)+z\n",
                 n, cfg.k, static_cast<long long>(cfg.z));
    std::fputs(kUsage, stderr);
    return 2;
  }
  const std::string which = flags.get_string("pipeline", "all");
  std::vector<std::string> names;
  if (which == "all") {
    names = engine::registry().names();
  } else if (engine::registry().contains(which)) {
    names.push_back(which);
  } else {
    std::fprintf(stderr, "error: unknown pipeline '%s'; --list shows the "
                         "catalogue\n", which.c_str());
    return 1;
  }

  // stream-mk runs one instance per (1+ε) ladder offset below 2.
  if (std::find(names.begin(), names.end(), "stream-mk") != names.end()) {
    const double ladder = stream::McCutchenKhuller::ladder_size(cfg.eps);
    if (!(ladder <= stream::McCutchenKhuller::kMaxLadder)) {
      std::fprintf(stderr,
                   "error: --eps %g gives stream-mk a ladder of %.0f "
                   "instances; it runs at most %.0f\n",
                   cfg.eps, ladder, stream::McCutchenKhuller::kMaxLadder);
      return 2;
    }
  }

  // The transport flags only mean something to the MPC model.  Asking for
  // the wire backend (or a machine count) on a named non-MPC
  // pipeline is a misread of what the flag does, so it is an error rather
  // than a silent no-op; `--pipeline all` stays allowed (the MPC rows use
  // the backend, the rest ignore it).
  if (which != "all" &&
      (cfg.backend != mpc::Backend::Local || flags.has("machines"))) {
    const auto pipeline = engine::registry().make(which);
    if (pipeline->model() != "mpc") {
      std::fprintf(stderr,
                   "error: --backend/--machines apply to MPC pipelines only; "
                   "'%s' is model '%s'\n",
                   which.c_str(), pipeline->model().c_str());
      std::fputs(kUsage, stderr);
      return 2;
    }
  }

  const bench::JsonLog json = bench::JsonLog::from_flags(flags);
  engine::Workload workload;
  if (flags.has("input")) {
    // External instance: no certified optimum bracket, so quality-bound
    // enforcement below is skipped (quality vs the direct solve remains).
    const std::string input = flags.get_string("input", "");
    const bool is_kcb =
        input.size() >= 4 && input.compare(input.size() - 4, 4, ".kcb") == 0;
    try {
      if (is_kcb) {
        auto src = std::make_shared<dataset::KcbSource>(input);
        if (src->dim() > Point::kMaxDim) {
          std::fprintf(stderr,
                       "error: %s: dim %d exceeds the Point limit of %d\n",
                       input.c_str(), src->dim(), Point::kMaxDim);
          return 2;
        }
        cfg.dim = src->dim();
        workload = engine::make_dataset_workload(std::move(src));
        if (cfg.with_direct_solve) {
          // The direct solve needs the full set in memory — the very thing
          // the out-of-core path avoids.  Radius stays exact (chunked
          // evaluation); only the quality column is dropped.
          std::printf("note: .kcb input streams out of core; direct solve "
                      "disabled (quality column omitted)\n");
          cfg.with_direct_solve = false;
        }
      } else {
        WeightedSet pts =
            dataset::read_csv_points(input, flags.has("weighted"));
        cfg.dim = pts.front().p.dim();
        workload.planted.buffer = kernels::PointBuffer(pts);
        workload.planted.points = std::move(pts);
        workload.planted.config.n = workload.planted.points.size();
        workload.order = shuffled_order(workload.n(), cfg.seed + 1);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  } else {
    workload = engine::make_workload(n, cfg);
  }

  // The dynamic sketch's sizing inputs, checked once the dimension is
  // known (an --input file sets it): its cell ids pack d·⌈log2 Δ⌉ bits into
  // 62, and its sample budget s = k(4√d/ε)^d + z, evaluated in double
  // before any integer conversion, must give a representable sketch.
  if (std::find(names.begin(), names.end(), "dynamic") != names.end()) {
    if (!GridHierarchy::fits(cfg.delta, cfg.dim)) {
      std::fprintf(stderr,
                   "error: --delta %lld in %d dimensions needs %lld bits "
                   "of grid cell id; the dynamic sketch packs at most 62\n",
                   static_cast<long long>(cfg.delta), cfg.dim,
                   static_cast<long long>(cfg.dim) *
                       GridHierarchy::axis_bits(cfg.delta));
      return 2;
    }
    const double s = dynamic::dynamic_sample_budget_real(cfg.k, cfg.z,
                                                         cfg.eps, cfg.dim);
    if (!(s <= static_cast<double>(dynamic::kMaxSampleBudget))) {
      std::fprintf(stderr,
                   "error: --k %d --z %lld --eps %g --dim %d give a dynamic "
                   "sample budget of %g cells; the largest representable "
                   "sketch holds %lld\n",
                   cfg.k, static_cast<long long>(cfg.z), cfg.eps, cfg.dim, s,
                   static_cast<long long>(dynamic::kMaxSampleBudget));
      return 2;
    }
  }

  if (workload.from_dataset()) {
    std::printf("kcenter_cli: dataset %s: n=%zu k=%d z=%lld eps=%g dim=%d "
                "norm=%s seed=%llu (streamed out of core)\n\n",
                workload.source->describe().c_str(), workload.n(), cfg.k,
                static_cast<long long>(cfg.z), cfg.eps, cfg.dim,
                cfg.metric().name(),
                static_cast<unsigned long long>(cfg.seed));
  } else {
    std::printf("kcenter_cli: n=%zu k=%d z=%lld eps=%g dim=%d norm=%s "
                "seed=%llu (planted opt in [%.4f, %.4f])\n\n",
                workload.n(), cfg.k, static_cast<long long>(cfg.z), cfg.eps,
                cfg.dim, cfg.metric().name(),
                static_cast<unsigned long long>(cfg.seed),
                workload.planted.opt_lo, workload.planted.opt_hi);
  }

  std::vector<std::string> header{"pipeline", "model", "coreset", "words",
                                  "rounds", "comm", "radius", "quality",
                                  "build ms", "solve ms"};
  if (faults_active) header.push_back("status");
  Table table(header);
  bool any_grid_space = false;
  bool silent_violation = false;
  // Pipelines without a streaming path fall back to one shared in-memory
  // copy of the dataset, built lazily on first use; when the source is too
  // large to materialize they are skipped (with a note) instead of blowing
  // the memory budget the out-of-core path exists to keep.
  engine::Workload materialized;
  std::string materialize_error;
  std::vector<std::string> skipped;
  for (const auto& name : names) {
    const auto pipeline = engine::registry().make(name);
    const engine::Workload* run_on = &workload;
    if (workload.from_dataset() && !pipeline->supports_dataset()) {
      if (materialized.planted.points.empty() && materialize_error.empty()) {
        try {
          materialized = engine::materialize_workload(*workload.source);
        } catch (const std::exception& e) {
          materialize_error = e.what();
        }
      }
      if (!materialize_error.empty()) {
        skipped.push_back(name);
        continue;
      }
      run_on = &materialized;
    }
    engine::PipelineResult res;
    try {
      res = pipeline->execute(*run_on, cfg);
    } catch (const std::bad_alloc&) {
      // A representable but oversized structure (e.g. the dynamic sketch
      // at a tiny --eps) is an input the machine cannot hold, not a crash.
      std::fprintf(stderr,
                   "error: %s: out of memory building the summary for "
                   "these parameters\n",
                   name.c_str());
      return 2;
    }
    const auto& r = res.report;
    const bool grid_space = r.get("grid_space") > 0;
    any_grid_space = any_grid_space || grid_space;
    std::vector<std::string> row{
        r.pipeline, r.model, fmt_count(static_cast<long long>(r.coreset_size)),
        fmt_count(static_cast<long long>(r.words)), std::to_string(r.rounds),
        fmt_count(static_cast<long long>(r.comm_words)),
        fmt(r.radius, 4) + (grid_space ? "*" : ""),
        cfg.with_direct_solve ? fmt(r.quality, 3) : "-", fmt(r.build_ms, 1),
        fmt(r.solve_ms, 1)};
    if (faults_active) {
      // Fault-injected MPC runs must either meet the registered quality
      // bound or carry the explicit degraded flag; a silent violation is a
      // bug and fails the invocation (the CI chaos leg relies on this).
      std::string status = "-";
      if (r.model == "mpc") {
        const bool degraded = r.get("degraded") > 0;
        const double opt_hi = workload.planted.opt_hi;
        const bool meets = opt_hi <= 0.0 ||
                           r.radius <= pipeline->quality_bound() * opt_hi +
                                           1e-9;
        status = degraded ? "DEGRADED" : (meets ? "VALID" : "BOUND-VIOLATED");
        if (!degraded && !meets) silent_violation = true;
      }
      row.push_back(status);
    }
    table.add_row(row);
    json.record("engine_pipeline", r.json_fields());
  }
  table.print();
  if (!skipped.empty()) {
    std::printf("\n  skipped (no streaming path, and the dataset cannot be "
                "materialized): ");
    for (std::size_t i = 0; i < skipped.size(); ++i)
      std::printf("%s%s", i ? ", " : "", skipped[i].c_str());
    std::printf("\n  reason: %s\n", materialize_error.c_str());
  }
  if (any_grid_space)
    std::printf("\n  * radius in discretized [Delta]^d coordinates (scale "
                "set by --delta); compare via the scale-free quality "
                "column, not across rows.\n");
  if (silent_violation) {
    std::fprintf(stderr,
                 "error: a fault-injected MPC run exceeded its quality bound "
                 "without reporting degradation\n");
    return 1;
  }
  return 0;
}
