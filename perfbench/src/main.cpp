// kc_perfbench — runs one benchmark workload and prints its metrics.
//
//   kc_perfbench --workload batch|stream|turnstile --seed N --seconds S
//                --trace 0|1 [--out-dir DIR]
//
// --trace 0 (the gated run): builds the inputs, runs one warm-up pass, then
// for S seconds builds the inputs again and runs an untraced pass through
// the engine seam, in turn, and reports the end-to-end metrics as medians
// (setup_s over set-ups, the others over passes).
// --trace 1: alternates an untraced pass with a traced one for S seconds,
// checks that both give the same results bit for bit, and reports the
// per-layer metrics, a Chrome trace file and a self-time table.
//
// Every output is checked outside the timed regions.  The last line of
// stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}.  Exit status: 0 when every check
// passed, 1 when one failed, 2 on a usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "stats.hpp"

namespace {

using namespace perfbench;

/// Before each timed pass, a --trace 0 run sets its workload up again, at
/// least once and until kSetupSecondsPerPass have gone by; setup_s is the
/// median of all these set-ups.  Spread over the run like the passes, the
/// samples do not all fall into one slow stretch of the host.
constexpr double kSetupSecondsPerPass = 0.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "kc_perfbench: %s\n"
               "usage: kc_perfbench --workload batch|stream|turnstile "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

double parse_number(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  if (v.empty() || *end != '\0' || !std::isfinite(x) || x < 0.0)
    usage("bad value for " + flag + ": '" + v + "'");
  return x;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[i + 1];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      const double s = parse_number(flag, v);
      if (s != std::floor(s) || s > 9.0e15) usage("--seed must be an integer");
      a.seed = static_cast<std::uint64_t>(s);
    } else if (flag == "--seconds") {
      a.seconds = parse_number(flag, v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

/// Median of one metric over passes.
double median(const std::vector<double>& xs) { return summarize(xs).median; }

void report_timing(const std::string& what, const std::vector<double>& xs,
                   const std::string& unit) {
  std::fprintf(stderr, "  %-26s %s\n", what.c_str(),
               describe(summarize(xs), unit).c_str());
}

/// One untimed pass before the timed ones, so allocator arenas and page
/// mappings have settled (its outputs are checked like any other pass).
void warm_up(const std::vector<Job>& jobs, Checks& checks) {
  const EnginePass pass = run_engine_pass(jobs, checks);
  std::fprintf(stderr, "  warm-up pass: %.3f s\n", pass.wall_s);
}

/// --trace 0: a set-up and a warm-up pass, then set-ups and untraced passes
/// in turn for `seconds`.
Metrics run_untraced(BenchWorkload& wl, const Args& args, Checks& checks) {
  std::vector<double> setup_s;
  Metrics ignored;
  const auto set_up = [&] {
    wl.clear();
    kc::Timer timer;
    wl.setup(nullptr, ignored);
    setup_s.push_back(timer.seconds());
  };
  set_up();
  std::vector<Job> jobs = wl.jobs();
  warm_up(jobs, checks);
  std::vector<double> wall_s, ingest;
  std::vector<std::vector<double>> run_s(jobs.size());
  EnginePass last;
  kc::Timer run;
  do {
    kc::Timer setups;
    do {
      set_up();
    } while (setups.seconds() < kSetupSecondsPerPass);
    jobs = wl.jobs();
    last = run_engine_pass(jobs, checks);
    wall_s.push_back(last.wall_s);
    std::fprintf(stderr, "  pass %zu: %.3f s\n", wall_s.size(), last.wall_s);
    for (std::size_t j = 0; j < jobs.size(); ++j)
      run_s[j].push_back(last.run_s[j]);
    ingest.push_back(static_cast<double>(last.inputs) /
                     (last.build_ms * 1e-3));
  } while (run.seconds() < args.seconds);

  std::fprintf(stderr, "%s seed %llu: %zu set-ups, %zu passes\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), setup_s.size(),
               wall_s.size());
  report_timing("setup_s", setup_s, "s");
  report_timing("wall_s", wall_s, "s");
  for (std::size_t j = 0; j < jobs.size(); ++j)
    report_timing("  " + jobs[j].pipeline, run_s[j], "s");
  report_timing("ingest_pts_per_s", ingest, "1/s");
  Metrics m;
  m.set("setup_s", median(setup_s), "s");
  m.set("wall_s", median(wall_s), "s");
  m.set("ingest_pts_per_s", median(ingest), "1/s");
  m.set("peak_rss_mb",
        static_cast<double>(kc::peak_rss_bytes()) / (1024.0 * 1024.0), "MB");
  m.set("summary_words", static_cast<double>(last.words), "words");
  m.set("radius_ratio", last.radius_ratio, "ratio");
  return m;
}

/// Per-call latency metrics of one call: median, p99.9, sample count.
void add_latency_metrics(Metrics& m, const std::string& call,
                         const std::vector<double>& us) {
  const Dist d = summarize(us);
  report_timing(call + " (us/call)", us, "us");
  m.set(call + "_samples", static_cast<double>(d.count), "count");
  m.set(call + "_us_p50", d.median, "us");
  if (has_tail(d.count, 0.999))
    m.set(call + "_us_p999", quantile(us, 0.999), "us");
  else
    std::fprintf(stderr, "  %s: %zu samples, too few for p99.9\n",
                 call.c_str(), d.count);
}

/// --trace 1: one traced set-up, then untraced and traced passes in turn.
Metrics run_traced(BenchWorkload& wl, const Args& args, Checks& checks) {
  Recorder rec;
  Metrics setup_layer;
  wl.clear();
  {
    ScopedSpan span(&rec, "bench.setup");
    wl.setup(&rec, setup_layer);
  }
  const std::vector<Job> jobs = wl.jobs();
  warm_up(jobs, checks);
  Latencies lat;
  std::vector<Metrics> passes;
  std::vector<double> untraced_s, traced_s, glue_ms;
  kc::Timer run;
  do {
    const EnginePass ep = run_engine_pass(jobs, checks);
    untraced_s.push_back(ep.wall_s);
    glue_ms.push_back(ep.glue_ms);

    rec.set_pass(static_cast<int>(passes.size()) + 1);
    Metrics layer;
    const int pass_id = rec.begin("bench.pass");
    const std::vector<Outcome> outcomes = wl.traced_pass(rec, layer, lat);
    traced_s.push_back(rec.end(pass_id) * 1e-3);
    check_traced(outcomes, ep, checks);
    const double eval_ms = layer.get("core.eval_ms");
    if (eval_ms > 0.0)
      layer.set("core.eval_pts_per_s",
                layer.get("core.eval_points") / (eval_ms * 1e-3), "1/s");
    passes.push_back(layer);
  } while (run.seconds() < args.seconds);

  std::fprintf(stderr, "%s seed %llu: %zu traced passes\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), passes.size());
  report_timing("untraced wall_s", untraced_s, "s");
  report_timing("traced wall_s", traced_s, "s");

  // Per-layer metrics: medians over the traced passes.
  Metrics m = setup_layer;
  for (const auto& [name, v] : passes.front().values()) {
    std::vector<double> xs;
    for (const Metrics& p : passes) xs.push_back(p.get(name));
    m.set(name, median(xs), v.unit);
  }
  m.set("engine.glue_ms", median(glue_ms), "ms");
  for (const auto& [call, us] : lat) add_latency_metrics(m, call, us);
  m.set("trace.overhead_pct",
        (median(traced_s) / median(untraced_s) - 1.0) * 100.0, "%");

  const std::filesystem::path trace_path =
      std::filesystem::path(args.out_dir) /
      ("trace-" + args.workload + "-seed" + std::to_string(args.seed) +
       ".json");
  std::ofstream os(trace_path);
  rec.write_chrome_json(os);
  os.close();
  checks.expect(!os.fail(), "chrome trace written to " + trace_path.string());
  std::fprintf(stderr, "chrome trace: %s\nself time per layer:\n",
               trace_path.string().c_str());
  rec.write_self_time_table(std::cerr);
  return m;
}

void print_result(const Metrics& m, Checks& checks) {
  std::string metrics;
  char buf[96];
  for (const auto& [name, v] : m.values()) {
    double value = v.value;
    if (!std::isfinite(value)) {
      checks.expect(false, "metric " + name + " is finite");
      value = 0.0;
    }
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               v.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": "
      "{%s}}\n",
      checks.failed() == 0 ? "true" : "false", checks.attempted(),
      checks.failed(), metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Params params;
  params.seed = args.seed;
  params.out_dir = args.out_dir;
  std::unique_ptr<BenchWorkload> wl =
      make_bench_workload(args.workload, params);
  if (wl == nullptr) usage("unknown workload '" + args.workload + "'");
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);

  Checks checks;
  Metrics m;
  try {
    m = args.trace ? run_traced(*wl, args, checks)
                   : run_untraced(*wl, args, checks);
  } catch (const std::exception& e) {
    checks.expect(false, std::string("benchmark run threw: ") + e.what());
  }
  wl->clear();
  print_result(m, checks);
  std::fflush(stdout);
  return checks.failed() == 0 ? 0 : 1;
}
