// The benchmark harness: workloads, passes, output checks and metrics.
//
// A workload builds its inputs from the seed (`setup`) and names the
// engine runs one pass makes (`jobs`).  The untraced pass runs those jobs
// through the public engine seam only (`kc::engine::run`), so the gated
// end-to-end numbers stay comparable across refactors of everything below
// it.  The traced pass (`traced_pass`) makes the same layer calls from the
// benchmark's own code, with a span around each, and must reproduce the
// engine reports bit for bit.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kcenter.hpp"
#include "trace.hpp"

namespace perfbench {

/// What every workload is built from.
struct Params {
  std::uint64_t seed = 1;
  /// Directory for files the workload writes (the stream's .kcb file).
  std::string out_dir = ".";
};

/// One `engine::run` call of a pass and what its output is checked against.
struct Job {
  std::string pipeline;
  const kc::engine::Workload* workload = nullptr;
  kc::engine::PipelineConfig cfg;
  /// Certified upper bound on the optimum, in the units of the report's
  /// radius (grid units for the dynamic pipeline).
  double opt_hi = 0.0;
  /// Input weight a weight-preserving summary must carry.
  std::int64_t weight = 0;
  /// Points or updates the pipeline ingests.
  std::size_t inputs = 0;
};

/// The part of an engine report the traced run must reproduce exactly.
struct Outcome {
  std::string pipeline;
  std::size_t coreset_size = 0;
  std::size_t words = 0;
  double radius = 0.0;
};

/// Output checks: every one counts as attempted, a false one as failed.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] int attempted() const noexcept { return attempted_; }
  [[nodiscard]] int failed() const noexcept { return failed_; }

 private:
  int attempted_ = 0;
  int failed_ = 0;
};

/// Metric values by name, each with its unit.
class Metrics {
 public:
  struct Value {
    double value = 0.0;
    std::string unit;
  };

  void set(const std::string& name, double value, const std::string& unit);
  /// Adds to the metric (starting from 0).
  void add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, Value>& values() const noexcept {
    return values_;
  }

 private:
  std::map<std::string, Value> values_;
};

/// Per-call latencies in microseconds, by call ("stream.insert", …).
using Latencies = std::map<std::string, std::vector<double>>;

class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;

  /// Builds the inputs from the seed (after `clear`).  Spans go to `rec`
  /// when it is set; metrics of the set-up calls to `layer`.
  virtual void setup(Recorder* rec, Metrics& layer) = 0;

  /// Releases the inputs and removes the files `setup` wrote.
  virtual void clear() = 0;

  /// The engine runs of one pass, in order.
  [[nodiscard]] virtual std::vector<Job> jobs() const = 0;

  /// One traced pass: the layer calls of `jobs()` made directly, with
  /// spans, per-layer metrics and per-call latencies.  Returns one outcome
  /// per job, in the same order.
  virtual std::vector<Outcome> traced_pass(Recorder& rec, Metrics& layer,
                                           Latencies& lat) = 0;
};

[[nodiscard]] std::unique_ptr<BenchWorkload> make_batch(const Params& p);
[[nodiscard]] std::unique_ptr<BenchWorkload> make_stream(const Params& p);
[[nodiscard]] std::unique_ptr<BenchWorkload> make_turnstile(const Params& p);

/// The workload called `name`, or null.
[[nodiscard]] std::unique_ptr<BenchWorkload> make_bench_workload(
    const std::string& name, const Params& p);

/// Result of one untraced pass.
struct EnginePass {
  double wall_s = 0.0;     ///< Σ engine::run wall time
  double build_ms = 0.0;   ///< Σ report build_ms
  double glue_ms = 0.0;    ///< Σ (run wall − build − solve − eval)
  std::size_t inputs = 0;  ///< Σ job inputs
  std::size_t words = 0;   ///< Σ report words
  double radius_ratio = 0.0;  ///< max radius / opt_hi
  std::vector<double> run_s;  ///< engine::run wall time per job
  std::vector<kc::engine::PipelineReport> reports;
};

/// Runs every job through `kc::engine::run` and checks each report: radius
/// within the pipeline's certified bound, weight conservation for
/// weight-preserving summaries, and the query's own success flag.
[[nodiscard]] EnginePass run_engine_pass(const std::vector<Job>& jobs,
                                         Checks& checks);

/// Checks that the traced outcomes equal the engine reports bit for bit.
void check_traced(const std::vector<Outcome>& traced, const EnginePass& pass,
                  Checks& checks);

/// Solves on the summary as the engine's extraction tail does (span
/// core.solve), adding to core.solve_ms and core.solve_points.
[[nodiscard]] kc::Solution traced_solve(Recorder& rec, Metrics& layer,
                                        const kc::WeightedSet& summary,
                                        const kc::engine::PipelineConfig& cfg,
                                        kc::ThreadPool* pool);

/// Evaluates `centers` on an in-memory ground truth (span core.evaluate),
/// adding to core.eval_ms and core.eval_points; returns the radius.
[[nodiscard]] double traced_evaluate(Recorder& rec, Metrics& layer,
                                     const kc::WeightedSet& ground_truth,
                                     const kc::PointSet& centers,
                                     const kc::engine::PipelineConfig& cfg,
                                     const kc::kernels::PointBuffer* buf);

/// Times one call into `samples` (microseconds).
template <typename Fn>
void timed_call(std::vector<double>& samples, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  samples.push_back(micros_between(t0, Clock::now()));
}

}  // namespace perfbench
