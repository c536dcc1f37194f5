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
// So are a numeric flag whose value does not parse whole into its type, an
// unknown enum name, and a configuration some selected pipeline rejects
// (engine::config_error, checked for every pipeline before any runs).

#include <cstdio>
#include <exception>
#include <memory>
#include <new>
#include <string>
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
    "                                is the R of mpc-rround, in [1, 31];\n"
    "                                partition adversarial|random|roundrobin\n"
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
    "  --fault-straggle <p>          per machine-round straggler prob [0];\n"
    "                                every probability is in [0, 1]\n"
    "  --fault-retries <r>           transport retry budget, in [0, 1000]:\n"
    "                                a lost message costs one attempt per\n"
    "                                retry, so run time grows with it [2]\n"
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

// Reads enum flag `name` through the library's `parse` (keeping *out when
// the flag is absent); an unknown value prints an error and returns false.
template <typename E>
bool parse_enum(const Flags& flags, const char* name, const char* choices,
                bool (*parse)(const std::string&, E*) noexcept, E* out) {
  if (!flags.has(name)) return true;
  const std::string value = flags.get_string(name, "");
  if (parse(value, out)) return true;
  std::fprintf(stderr, "error: unknown --%s '%s' (%s)\n", name, value.c_str(),
               choices);
  return false;
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

  // Every numeric flag parses whole into its own type (Flags exits 2
  // otherwise); the defaults are PipelineConfig's.  --machines is the
  // transport-era alias of --m; given both, --machines wins (it is the more
  // explicit spelling).  Ranges are the engine's: config_error below.
  engine::PipelineConfig cfg;
  const auto n = flags.get<std::size_t>("n", 4000);
  cfg.k = flags.get("k", cfg.k);
  cfg.z = flags.get("z", cfg.z);
  cfg.eps = flags.get("eps", cfg.eps);
  cfg.dim = flags.get("dim", cfg.dim);
  cfg.seed = flags.get("seed", cfg.seed);
  cfg.num_threads = flags.get("threads", cfg.num_threads);
  cfg.machines = flags.get("machines", flags.get("m", cfg.machines));
  cfg.rounds = flags.get("rounds", cfg.rounds);
  cfg.window = flags.get("window", cfg.window);
  cfg.delta = flags.get("delta", cfg.delta);
  cfg.fault_seed = flags.get("fault-seed", cfg.fault_seed);
  cfg.fault_crash = flags.get("fault-crash", cfg.fault_crash);
  cfg.fault_drop = flags.get("fault-drop", cfg.fault_drop);
  cfg.fault_truncate = flags.get("fault-truncate", cfg.fault_truncate);
  cfg.fault_straggle = flags.get("fault-straggle", cfg.fault_straggle);
  cfg.fault_retries = flags.get("fault-retries", cfg.fault_retries);
  cfg.partition_seed = cfg.seed;
  cfg.with_direct_solve = !flags.has("no-direct");
  cfg.deterministic_recovery = flags.has("det-recovery");
  const bool names_ok =
      parse_enum(flags, "norm", "l2|l1|linf", parse_norm, &cfg.norm) &&
      parse_enum(flags, "partition", "adversarial|random|roundrobin",
                 mpc::parse_partition, &cfg.partition) &&
      parse_enum(flags, "policy", "ours|ceccarello",
                 stream::parse_threshold_policy, &cfg.policy) &&
      parse_enum(flags, "backend", "local|wire", mpc::parse_backend,
                 &cfg.backend) &&
      parse_enum(flags, "fault-policy", "retry|reassign|degrade",
                 mpc::parse_recovery_policy, &cfg.fault_policy);
  if (!names_ok) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const bool faults_active = cfg.fault_config().active();

  const std::string which = flags.get_string("pipeline", "all");
  std::vector<std::string> names;
  if (which == "all") {
    names = engine::registry().names();
  } else if (engine::registry().contains(which)) {
    names.push_back(which);
  } else {
    std::fprintf(stderr, "error: unknown pipeline '%s'; --list shows the "
                         "catalogue\n", which.c_str());
    std::fputs(kUsage, stderr);
    return 2;
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

  // The workload comes first: an --input file sets n and dim.
  const bench::JsonLog json = bench::JsonLog::from_flags(flags);
  engine::Workload workload;
  try {
    if (flags.has("input")) {
      // External instance: no certified optimum bracket, so quality-bound
      // enforcement below is skipped (quality vs the direct solve remains).
      const std::string input = flags.get_string("input", "");
      const bool is_kcb = input.size() >= 4 &&
                          input.compare(input.size() - 4, 4, ".kcb") == 0;
      if (is_kcb) {
        workload = engine::make_dataset_workload(
            std::make_shared<dataset::KcbSource>(input));
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
        workload.planted.buffer = kernels::PointBuffer(pts);
        workload.planted.points = std::move(pts);
        workload.planted.config.n = workload.planted.points.size();
        workload.order = shuffled_order(workload.n(), cfg.seed + 1);
      }
      cfg.dim = workload.dim();
    } else {
      workload = engine::make_workload(n, cfg);
    }
  } catch (const engine::ConfigError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::fputs(kUsage, stderr);
    return 2;
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr, "error: out of memory building the workload\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  // Every selected pipeline accepts the configuration before any runs.
  for (const auto& name : names) {
    const std::string err =
        engine::config_error(*engine::registry().make(name), cfg, workload);
    if (!err.empty()) {
      std::fprintf(stderr, "error: %s: %s\n", name.c_str(), err.c_str());
      std::fputs(kUsage, stderr);
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
