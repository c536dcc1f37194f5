// The engine layer: one pipeline abstraction over every computation model.
//
// The paper's central claim is that a single coreset notion (Definition 1,
// Lemmas 3–5) serves offline, MPC, insertion-only streaming, and fully
// dynamic computation.  This layer makes that uniformity executable: every
// algorithm in the repo — the paper's Algorithms 1/2/3/5/6/7 and the
// Table-1 baselines (Ceccarello et al., Guha et al., McCutchen–Khuller,
// the sliding-window structure) — is wrapped as a `Pipeline` that
//
//   1. consumes the same `Workload` (a planted instance plus derived
//      arrival order / turnstile script),
//   2. builds its summary under its own model's rules, and
//   3. extracts a `Solution` and a `PipelineReport` with the quantities
//      Table 1 compares: radius/quality, coreset size, storage words,
//      rounds, communication, timings.
//
// Pipelines are registered by name in `kc::engine::registry()`
// (registry.hpp); the `kcenter_cli` driver (tools/), the `bench_table1_*`
// harnesses, and `tests/test_engine.cpp` all compose workloads × pipelines
// through this one seam, so features like new metrics, sharded drivers, or
// batched execution are added here once instead of per harness.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "geometry/grid.hpp"
#include "mpc/faults.hpp"
#include "mpc/partition.hpp"
#include "mpc/transport.hpp"
#include "stream/insertion_only.hpp"
#include "util/exec_context.hpp"
#include "util/jsonlog.hpp"
#include "workload/generators.hpp"
#include "workload/streams.hpp"

namespace kc::dataset {
class DataSource;  // dataset/source.hpp
}

namespace kc::engine {

/// Everything a pipeline run is parameterized by: the shared problem
/// parameters (k, z, ε, metric) plus the model-specific knobs.  Knobs a
/// model does not use are ignored by its pipelines.
struct PipelineConfig {
  // Shared problem parameters.
  int k = 3;
  std::int64_t z = 16;
  double eps = 0.5;
  int dim = 2;
  Norm norm = Norm::L2;
  std::uint64_t seed = 1;  ///< sketch/randomized-pipeline seed

  /// Thread-pool size for the fan-out paths (the MPC per-machine map phase
  /// and the chunk-parallel batch kernels of the extraction tail).  1 =
  /// sequential (the default), 0 = hardware_concurrency.  Reports are
  /// bit-identical for every value — threading only changes wall time
  /// (pinned by tests/test_parallel.cpp).
  int num_threads = 1;
  static constexpr int kMaxThreads = 256;  ///< all started up front

  /// Extract a Solution from the summary at all (solve on the summary,
  /// evaluate on ground truth).  Storage-shape-only consumers (e.g. the
  /// T1-MPC z sweep) switch it off to skip the extraction tail entirely;
  /// the result then carries only the summary and the report's storage /
  /// communication fields.
  bool with_extraction = true;

  /// Also run the direct offline solve on the ground-truth set so the
  /// report carries `radius_direct` and `quality`.  Costly on large
  /// instances; harness rows that compare against a planted bracket
  /// instead (e.g. McCutchen–Khuller in T1-STREAM) switch it off.
  /// Direct solves on the workload's own `planted.points` are memoized in
  /// the workload, so running many pipelines on one workload (the CLI's
  /// `--pipeline all`) pays for it once.
  bool with_direct_solve = true;

  // MPC knobs.
  int machines = 8;
  /// Message transport the MPC simulator routes through: `Local` is the
  /// in-process hand-off (byte-identical to the historical simulator),
  /// `Wire` delivers every message through an encode → decode of its
  /// checksummed wire frame, reporting measured `wire_bytes`/`wire_ratio`
  /// next to the predicted `comm_words`.  Result columns are
  /// byte-identical across backends at a fixed seed.
  mpc::Backend backend = mpc::Backend::Local;
  mpc::PartitionKind partition = mpc::PartitionKind::EvenSorted;
  std::uint64_t partition_seed = 1;
  int rounds = 2;  ///< R for the R-round trade-off pipeline
  /// β ≥ 2 at least halves the machines per stage: any int m is down to one
  /// after 31, and each later stage is a lone recompression at machine 0.
  static constexpr int kMaxRounds = 31;

  /// MPC fault plan (mpc/faults.hpp).  All probabilities default to 0: an
  /// inactive plan never fires, so fault-free reports carry no fault keys
  /// and equal those of a run without injection.
  mpc::FaultConfig fault;
  /// Each retry is one more attempt per lost message: at drop probability 1
  /// run time is linear in `fault.retry_budget` (10^7 took 9 s at n = 300,
  /// m = 4).
  static constexpr int kMaxFaultRetries = 1000;

  /// `fault`, for callers that read the plan through a call.
  [[nodiscard]] mpc::FaultConfig fault_config() const { return fault; }

  // Streaming knobs.
  stream::ThresholdPolicy policy = stream::ThresholdPolicy::Ours;
  std::int64_t window = 0;  ///< sliding-window length W; 0 = whole stream

  // Dynamic (turnstile) knobs.
  std::int64_t delta = 256;  ///< universe side Δ of [Δ]^d
  bool deterministic_recovery = false;

  [[nodiscard]] Metric metric() const { return Metric{norm}; }
};

/// Memoized direct solves on a workload's planted points, shared by every
/// pipeline run on that workload (not thread-safe; runs are sequential).
struct DirectSolveCache {
  struct Entry {
    int k = 0;
    std::int64_t z = 0;
    Norm norm = Norm::L2;
    double radius = 0.0;
  };
  std::vector<Entry> entries;
};

/// A concrete problem instance in the form every pipeline consumes: the
/// planted points (with their certified optimum bracket) plus the derived
/// views the sequential models need.  Build one with `make_workload` or
/// fill the fields directly when a harness needs specific seeds.
struct Workload {
  PlantedInstance planted;

  /// Arrival order for the streaming pipelines (indices into
  /// `planted.points`); empty = input order.
  std::vector<std::size_t> order;

  /// Turnstile script for the dynamic pipeline.  Empty = insert the
  /// discretized points in order (no deletions).
  DynamicScript script;

  /// Discretized view of `planted.points` on [Δ]^dim backing `script`.
  /// Empty = the dynamic pipeline discretizes with the config's Δ itself.
  std::vector<GridPoint> grid;

  /// Shared across pipeline runs on this workload; see
  /// `PipelineConfig::with_direct_solve`.
  std::shared_ptr<DirectSolveCache> direct_cache =
      std::make_shared<DirectSolveCache>();

  /// Out-of-core dataset behind this workload (null = fully in-memory).
  /// When set and `planted.points` is empty, dataset-capable pipelines
  /// (`Pipeline::supports_dataset`) stream chunks from it instead of
  /// touching the planted fields; peak memory then stays O(chunk),
  /// independent of the source size.  Build with `make_dataset_workload`,
  /// or copy the source into memory with `materialize_workload` for the
  /// remaining pipelines.
  std::shared_ptr<dataset::DataSource> source;

  /// True when pipelines must stream from `source` (set, and no
  /// materialized points shadow it).
  [[nodiscard]] bool from_dataset() const noexcept {
    return source != nullptr && planted.points.empty();
  }

  /// Instance size: the materialized point count, or the dataset size for
  /// a dataset-backed workload (out of line — `DataSource` is incomplete
  /// here).
  [[nodiscard]] std::size_t n() const noexcept;

  /// The points' dimension, else the dataset's, else the planted config's.
  [[nodiscard]] int dim() const noexcept;

  /// The planted instance's canonical SoA buffer, or null when a harness
  /// filled the fields by hand and left it empty/stale.  Pipelines hand
  /// this to the solver/evaluation layers so nothing re-packs the input.
  [[nodiscard]] const kernels::PointBuffer* buffer() const noexcept {
    return (!planted.points.empty() &&
            planted.buffer.size() == planted.points.size())
               ? &planted.buffer
               : nullptr;
  }
};

/// A configuration outside the ranges a pipeline's structures hold for:
/// thrown by `Pipeline::execute` and `make_workload` before any work.
class ConfigError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Standard workload: a planted instance with cfg's (k, z, dim, norm, seed)
/// and a shuffled arrival order derived from cfg.seed.  Throws ConfigError
/// on a shared field out of range (`config_error`), on n < k(z+1) + z, and
/// on points past the memory budget.
[[nodiscard]] Workload make_workload(std::size_t n, const PipelineConfig& cfg);

/// Dataset-backed workload: no planted points, no certified bracket; the
/// arrival order is the source's sequential order.  Dataset-capable
/// pipelines stream from it within fixed memory.
[[nodiscard]] Workload make_dataset_workload(
    std::shared_ptr<dataset::DataSource> src);

/// Copies a dataset into an ordinary in-memory workload (unit weights,
/// sequential order, SoA buffer built alongside) for pipelines without a
/// streaming path.  Throws std::runtime_error when the source exceeds
/// `max_points` (materializing it would defeat out-of-core operation —
/// use a dataset-capable pipeline instead) or its dim exceeds the `Point`
/// boundary limit.
[[nodiscard]] Workload materialize_workload(dataset::DataSource& src,
                                            std::size_t max_points =
                                                8'000'000);

/// What a pipeline run measured.  `words` is the model's headline storage
/// metric (MPC: peak worker words; streaming: peak stored words; dynamic:
/// sketch words; offline: coreset words); everything model-specific beyond
/// the common fields lands in `extra` under stable keys (see each
/// pipeline's description).
struct PipelineReport {
  std::string pipeline;
  std::string model;  ///< "offline" | "mpc" | "stream" | "dynamic"
  std::size_t n = 0;
  int k = 0;
  std::int64_t z = 0;
  double eps = 0.0;
  int dim = 0;
  Norm norm = Norm::L2;

  std::size_t coreset_size = 0;
  std::size_t words = 0;
  int rounds = 0;               ///< communication rounds (MPC pipelines)
  std::size_t comm_words = 0;   ///< total communication volume (MPC)

  double radius = 0.0;         ///< extracted centers evaluated on ground truth
  double radius_direct = 0.0;  ///< direct solve on ground truth (if enabled)
  double quality = 0.0;        ///< radius / radius_direct (1.0 when disabled)

  double build_ms = 0.0;  ///< summary construction (the model's online part)
  double solve_ms = 0.0;  ///< solve on the summary only (ground-truth
                          ///< evaluation and the optional direct solve are
                          ///< reported as "eval_ms" / "direct_ms" extras)

  std::vector<std::pair<std::string, double>> extra;

  void set(const std::string& key, double value);
  [[nodiscard]] double get(const std::string& key, double def = 0.0) const;

  /// Flattens the report into JSON fields (common fields + extras) for the
  /// `engine_pipeline` trajectory records of kcenter_cli and the benches.
  [[nodiscard]] std::vector<bench::JsonField> json_fields() const;
};

struct PipelineResult {
  /// The summary the model shipped/maintained.  Empty for solution-only
  /// baselines (McCutchen–Khuller keeps exact support points and answers
  /// queries directly — the very cost the paper's coresets remove).
  WeightedSet coreset;
  /// Centers extracted from the summary, radius evaluated on the
  /// pipeline's ground-truth set (the original points, the window
  /// contents, or the discretized live set — see `Pipeline::run`).
  Solution solution;
  PipelineReport report;
};

/// Interface every computation model implements.  Pipelines are stateless;
/// `run` is a pure function of (workload, config).
class Pipeline {
 public:
  virtual ~Pipeline() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::string model() const = 0;
  [[nodiscard]] virtual std::string description() const = 0;

  /// Whether the pipeline's summary preserves total weight (Definition 2).
  /// False for the baselines that cap or drop weights (sliding-window
  /// clamps alive counts at z+1; McCutchen–Khuller has no summary).
  [[nodiscard]] virtual bool preserves_weight() const { return true; }

  /// Generous certified bound on radius / opt for the extracted solution
  /// (approximation factor × coreset slack, with headroom for the planted
  /// bracket); tests assert `report.radius ≤ quality_bound() · opt_hi`.
  [[nodiscard]] virtual double quality_bound() const { return 5.0; }

  /// Whether `run` can stream a dataset-backed workload
  /// (`Workload::from_dataset`) chunk-by-chunk within fixed memory.  The
  /// sequential one-pass models (insertion-only streaming, dynamic)
  /// support it; the others require `materialize_workload` first.
  [[nodiscard]] virtual bool supports_dataset() const { return false; }

  /// Runs the model end to end and fills coreset/solution/report.  The
  /// common report fields (pipeline/model/n/k/z/eps/dim/norm) are stamped by
  /// `execute`; implementations fill the measured ones.
  [[nodiscard]] virtual PipelineResult run(const Workload& w,
                                           const PipelineConfig& cfg) const = 0;

  /// `config_error` check (a non-empty one is thrown as ConfigError), then
  /// `run` + stamping of the identification fields.  Call this, not `run`.
  [[nodiscard]] PipelineResult execute(const Workload& w,
                                       const PipelineConfig& cfg) const;

 protected:
  /// Limits of the pipeline's own structures (sketch size, ladder length,
  /// message volume) once the shared ranges hold; empty when cfg fits.
  [[nodiscard]] virtual std::string sizing_error(
      const PipelineConfig& /*cfg*/, const Workload& /*w*/) const {
    return {};
  }

  friend std::string config_error(const Pipeline&, const PipelineConfig&,
                                  const Workload&);
};

/// Why `pipeline` cannot run `cfg` on `w`, or empty when it can: first the
/// shared ranges (k ≥ 1, z ≥ 0, ε ∈ (0, 1], dim ∈ [1, Point::kMaxDim] and
/// the workload's, machines ≥ 1, window ≥ 0, Δ ≥ 2, fault probabilities in
/// [0, 1], num_threads/rounds/fault retries within PipelineConfig's kMax*
/// limits), then the pipeline's own `sizing_error`.  Allocates nothing.
[[nodiscard]] std::string config_error(const Pipeline& pipeline,
                                       const PipelineConfig& cfg,
                                       const Workload& w);

/// Non-empty when `bytes`, a lower bound on what `what` holds at once,
/// exceeds `memory_budget_bytes()` (util/rss.hpp): such a run cannot fit.
[[nodiscard]] std::string memory_error(double bytes, const std::string& what);

/// Shared tail of every pipeline: solve k-center-with-outliers on the
/// summary (Charikar greedy, the paper's "offline algorithm on the
/// coreset"), evaluate the centers on `ground_truth`, and—when
/// `cfg.with_direct_solve`—compare against the direct solve.  Fills
/// solution, radius, radius_direct, quality, and solve_ms.  No-op on an
/// empty summary or when `cfg.with_extraction` is off.  `w` is the
/// workload the run consumes: direct solves are memoized in its cache
/// when `ground_truth` is the workload's own planted point set.  `ctx`
/// carries the extraction tail's execution environment
/// (util/exec_context.hpp):
/// `ctx.pool` runs the solver's batch kernels chunk-parallel — results
/// are bit-identical with or without it — and `ctx.buffer` is a SoA
/// buffer of `ground_truth` in the same order, for pipelines whose ground
/// truth is NOT the planted set (window contents, discretized live set);
/// when null and `ground_truth` is the planted set, the workload's
/// canonical buffer is used automatically.
void extract_and_evaluate(PipelineResult& res, const WeightedSet& ground_truth,
                          const PipelineConfig& cfg, const Workload& w,
                          const ExecContext& ctx = {});

/// Variant for solution-only pipelines that already hold centers: evaluate
/// them on `ground_truth` and fill radius/radius_direct/quality.
void evaluate_centers(PipelineResult& res, PointSet centers,
                      const WeightedSet& ground_truth,
                      const PipelineConfig& cfg, const Workload& w,
                      const ExecContext& ctx = {});

/// Out-of-core variant of `extract_and_evaluate`: solve on the summary,
/// then evaluate the centers against the *source* one chunk at a time
/// (dataset/source.hpp `chunked_radius_with_outliers` — bit-identical to
/// the in-memory evaluation).  `transform` optionally rewrites each chunk
/// before evaluation (the dynamic pipeline's grid-space ground truth).
/// The direct solve is never run (it needs the full set in memory);
/// `quality` is reported as 1.0, mirroring `with_direct_solve = false`.
void extract_and_evaluate_source(
    PipelineResult& res, dataset::DataSource& src, const PipelineConfig& cfg,
    const std::function<void(const kernels::BufferView&,
                             kernels::PointBuffer&)>& transform = nullptr);

}  // namespace kc::engine
