#include "engine/pipeline.hpp"

#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "core/cost.hpp"
#include "core/solver.hpp"
#include "dataset/source.hpp"
#include "util/parallel.hpp"
#include "util/rss.hpp"
#include "util/timer.hpp"

namespace kc::engine {

std::size_t Workload::n() const noexcept {
  if (!planted.points.empty() || source == nullptr)
    return planted.points.size();
  return static_cast<std::size_t>(source->size());
}

int Workload::dim() const noexcept {
  if (!planted.points.empty()) return planted.points.front().p.dim();
  return source != nullptr ? source->dim() : planted.config.dim;
}

namespace {

/// The shared field ranges of `config_error` (all but the workload's dim).
std::string field_error(const PipelineConfig& cfg) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::tuple<const char*, double, double, double> ranges[] = {
      {"k", cfg.k, 1, kInf},
      {"z", static_cast<double>(cfg.z), 0, kInf},
      {"dim", cfg.dim, 1, Point::kMaxDim},
      {"num_threads", cfg.num_threads, 0, PipelineConfig::kMaxThreads},
      {"machines", cfg.machines, 1, kInf},
      {"rounds", cfg.rounds, 1, PipelineConfig::kMaxRounds},
      {"window", static_cast<double>(cfg.window), 0, kInf},
      {"delta", static_cast<double>(cfg.delta), 2, kInf},
      {"fault_crash", cfg.fault.crash_prob, 0, 1},
      {"fault_drop", cfg.fault.drop_prob, 0, 1},
      {"fault_truncate", cfg.fault.truncate_prob, 0, 1},
      {"fault_straggle", cfg.fault.straggle_prob, 0, 1},
      {"fault_retries", cfg.fault.retry_budget, 0,
       PipelineConfig::kMaxFaultRetries}};
  // The negated range tests are false for NaN too.
  if (!(cfg.eps > 0.0 && cfg.eps <= 1.0)) {
    std::ostringstream os;
    os << std::setprecision(17) << "eps must be in (0, 1] (got " << cfg.eps
       << ")";
    return os.str();
  }
  for (const auto& [field, got, lo, hi] : ranges) {
    if (got >= lo && got <= hi) continue;
    std::ostringstream os;
    os << std::setprecision(17) << field << " must be "
       << (hi == kInf ? ">= " : "in [") << lo;
    if (hi != kInf) os << ", " << hi << "]";
    os << " (got " << got << ")";
    return os.str();
  }
  return {};
}

}  // namespace

std::string memory_error(double bytes, const std::string& what) {
  const double budget = static_cast<double>(memory_budget_bytes());
  if (!(bytes > budget)) return {};
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << what << " needs at least "
     << bytes / 1e9
     << " GB; the memory budget (RLIMIT_AS, else physical RAM) is "
     << budget / 1e9 << " GB";
  return os.str();
}

std::string config_error(const Pipeline& pipeline, const PipelineConfig& cfg,
                         const Workload& w) {
  std::string err = field_error(cfg);
  if (err.empty() && cfg.dim != w.dim())
    err = "dim " + std::to_string(cfg.dim) + " differs from the workload's " +
          std::to_string(w.dim());
  return err.empty() ? pipeline.sizing_error(cfg, w) : err;
}

Workload make_workload(std::size_t n, const PipelineConfig& cfg) {
  std::string err = field_error(cfg);
  // k clusters of at least z+1 points plus z outliers, without overflow.
  const auto zu = static_cast<std::size_t>(cfg.z);
  if (err.empty() &&
      (n < zu || (n - zu) / (zu + 1) < static_cast<std::size_t>(cfg.k)))
    err = "n = " + std::to_string(n) + " is too small for k = " +
          std::to_string(cfg.k) + ", z = " + std::to_string(cfg.z) +
          ": a planted instance needs n >= k(z+1)+z";
  // The points, their SoA buffer and the arrival order live at once.
  const double point_bytes = sizeof(WeightedPoint) + sizeof(std::size_t) +
                             sizeof(double) * static_cast<double>(cfg.dim);
  if (err.empty())
    err = memory_error(static_cast<double>(n) * point_bytes,
                       "the planted workload");
  if (!err.empty()) throw ConfigError(err);
  PlantedConfig pc;
  pc.n = n;
  pc.k = cfg.k;
  pc.z = cfg.z;
  pc.dim = cfg.dim;
  pc.norm = cfg.norm;
  pc.seed = cfg.seed;
  Workload w;
  w.planted = make_planted(pc);
  w.order = shuffled_order(n, cfg.seed + 1);
  return w;
}

Workload make_dataset_workload(std::shared_ptr<dataset::DataSource> src) {
  KC_EXPECTS(src != nullptr);
  Workload w;
  w.planted.config.n = static_cast<std::size_t>(src->size());
  w.planted.config.dim = src->dim();
  w.source = std::move(src);
  return w;
}

Workload materialize_workload(dataset::DataSource& src,
                              std::size_t max_points) {
  if (src.size() > max_points) {
    std::ostringstream os;
    os << "dataset " << src.describe() << " has " << src.size()
       << " points; materializing more than " << max_points
       << " defeats out-of-core operation — use a dataset-capable pipeline "
          "(stream-insertion, dynamic) instead";
    throw std::runtime_error(os.str());
  }
  if (src.dim() > Point::kMaxDim) {
    std::ostringstream os;
    os << "dataset " << src.describe() << " has dim " << src.dim()
       << ", above the Point limit of " << Point::kMaxDim;
    throw std::runtime_error(os.str());
  }
  Workload w;
  const auto n = static_cast<std::size_t>(src.size());
  w.planted.points.reserve(n);
  w.planted.buffer = kernels::PointBuffer(src.dim());
  w.planted.buffer.reserve(n);
  dataset::ChunkedReader reader(src);
  dataset::ChunkedReader::Chunk ch;
  Point p(src.dim());
  while (reader.next(ch)) {
    for (std::size_t i = 0; i < ch.view.size(); ++i) {
      for (int j = 0; j < ch.view.dim(); ++j) p[j] = ch.view.col(j)[i];
      w.planted.points.push_back({p, 1});
      w.planted.buffer.append(p);
    }
  }
  w.planted.config.n = n;
  w.planted.config.dim = src.dim();
  return w;
}

void PipelineReport::set(const std::string& key, double value) {
  for (auto& [k_, v] : extra) {
    if (k_ == key) {
      v = value;
      return;
    }
  }
  extra.emplace_back(key, value);
}

double PipelineReport::get(const std::string& key, double def) const {
  for (const auto& [k_, v] : extra)
    if (k_ == key) return v;
  return def;
}

std::vector<bench::JsonField> PipelineReport::json_fields() const {
  std::vector<bench::JsonField> fields;
  fields.reserve(extra.size() + 16);
  fields.emplace_back("pipeline", pipeline);
  fields.emplace_back("model", model);
  fields.emplace_back("n", static_cast<long long>(n));
  fields.emplace_back("k", k);
  fields.emplace_back("z", static_cast<long long>(z));
  fields.emplace_back("eps", eps);
  fields.emplace_back("dim", dim);
  const char* norm_name = "l2";  // spelled as --norm takes it
  if (norm == Norm::L1) norm_name = "l1";
  if (norm == Norm::Linf) norm_name = "linf";
  fields.emplace_back("norm", norm_name);
  fields.emplace_back("coreset", static_cast<long long>(coreset_size));
  fields.emplace_back("words", static_cast<long long>(words));
  fields.emplace_back("rounds", rounds);
  fields.emplace_back("comm_words", static_cast<long long>(comm_words));
  fields.emplace_back("radius", radius);
  fields.emplace_back("radius_direct", radius_direct);
  fields.emplace_back("quality", quality);
  fields.emplace_back("build_ms", build_ms);
  fields.emplace_back("solve_ms", solve_ms);
  for (const auto& [key, value] : extra) fields.emplace_back(key, value);
  return fields;
}

PipelineResult Pipeline::execute(const Workload& w,
                                 const PipelineConfig& cfg) const {
  if (w.from_dataset() && !supports_dataset()) {
    std::ostringstream os;
    os << "pipeline '" << name()
       << "' cannot stream a dataset-backed workload; materialize_workload "
          "it first or pick a dataset-capable pipeline";
    throw std::runtime_error(os.str());
  }
  if (std::string err = config_error(*this, cfg, w); !err.empty())
    throw ConfigError(name() + ": " + err);
  PipelineResult res = run(w, cfg);
  res.report.pipeline = name();
  res.report.model = model();
  res.report.n = w.n();
  res.report.k = cfg.k;
  res.report.z = cfg.z;
  res.report.eps = cfg.eps;
  res.report.dim = cfg.dim;
  res.report.norm = cfg.norm;
  res.report.coreset_size = res.coreset.size();
  return res;
}

namespace {

/// Resolves the SoA buffer to evaluate `ground_truth` through: the
/// caller-supplied one when given, else the workload's canonical buffer
/// when `ground_truth` IS the workload's planted point set (harnesses that
/// fill Workload fields by hand may leave it empty).  Null otherwise — the
/// consumers below then pack one.
const kernels::PointBuffer* ground_truth_buffer(
    const WeightedSet& ground_truth, const Workload& w,
    const kernels::PointBuffer* gt_buffer) {
  if (gt_buffer != nullptr && gt_buffer->size() == ground_truth.size())
    return gt_buffer;
  return &ground_truth == &w.planted.points ? w.buffer() : nullptr;
}

/// Direct solve on `ground_truth`, memoized in the workload's cache when
/// `ground_truth` is the workload's own planted point set (the common
/// case: 8 of the 10 built-in pipelines share it, so `--pipeline all`
/// pays for the most expensive step once).
double direct_radius(const WeightedSet& ground_truth,
                     const PipelineConfig& cfg, const Workload& w,
                     PipelineReport& report, ThreadPool* pool,
                     const kernels::PointBuffer* gt_buffer) {
  const bool cacheable =
      &ground_truth == &w.planted.points && w.direct_cache != nullptr;
  if (cacheable) {
    for (const auto& e : w.direct_cache->entries)
      if (e.k == cfg.k && e.z == cfg.z && e.norm == cfg.norm) return e.radius;
  }
  Timer timer;
  OracleOptions oracle;
  oracle.exec.pool = pool;
  oracle.exec.buffer = ground_truth_buffer(ground_truth, w, gt_buffer);
  const Solution direct =
      solve_kcenter_outliers(ground_truth, cfg.k, cfg.z, cfg.metric(), oracle);
  report.set("direct_ms", timer.millis());
  if (cacheable)
    w.direct_cache->entries.push_back({cfg.k, cfg.z, cfg.norm, direct.radius});
  return direct.radius;
}

/// Charikar's greedy on the summary; its time is added to solve_ms.
Solution solve_summary(PipelineResult& res, const PipelineConfig& cfg,
                       ThreadPool* pool) {
  Timer timer;
  OracleOptions oracle;
  oracle.exec.pool = pool;
  Solution via =
      solve_kcenter_outliers(res.coreset, cfg.k, cfg.z, cfg.metric(), oracle);
  res.report.solve_ms += timer.millis();
  return via;
}

/// Fills solution, radius, radius_direct and quality for `centers` at
/// radius `on_full`; `direct` is the direct solve's radius, 0 when none ran.
void record_evaluation(PipelineResult& res, PointSet centers, double on_full,
                       double direct) {
  res.solution = Solution{std::move(centers), on_full};
  res.report.radius = on_full;
  res.report.radius_direct = direct;
  // Same guard as the QUALITY benches: degenerate direct radius → 1.0.
  res.report.quality = direct > 0 ? on_full / direct : 1.0;
}

}  // namespace

void extract_and_evaluate(PipelineResult& res, const WeightedSet& ground_truth,
                          const PipelineConfig& cfg, const Workload& w,
                          const ExecContext& ctx) {
  if (!cfg.with_extraction || res.coreset.empty()) return;
  Solution via = solve_summary(res, cfg, ctx.pool);
  evaluate_centers(res, std::move(via.centers), ground_truth, cfg, w, ctx);
}

void extract_and_evaluate(PipelineResult& res,
                          const kernels::PointBuffer& ground_truth,
                          const PipelineConfig& cfg, const Workload& w) {
  if (!cfg.with_extraction || res.coreset.empty()) return;
  Solution via = solve_summary(res, cfg, nullptr);
  Timer timer;
  OutlierTail tail(cfg.z, cfg.metric());
  tail.add(ground_truth.view(), via.centers);
  const double on_full = tail.radius();
  res.report.set("eval_ms", timer.millis());
  double direct = 0.0;
  if (cfg.with_direct_solve) {
    // The direct solve takes the AoS set: built for it alone.
    WeightedSet pts;
    pts.reserve(ground_truth.size());
    for (std::size_t i = 0; i < ground_truth.size(); ++i)
      pts.push_back({ground_truth.point(i), 1});
    direct = direct_radius(pts, cfg, w, res.report, nullptr, &ground_truth);
  }
  record_evaluation(res, std::move(via.centers), on_full, direct);
}

void evaluate_centers(PipelineResult& res, PointSet centers,
                      const WeightedSet& ground_truth,
                      const PipelineConfig& cfg, const Workload& w,
                      const ExecContext& ctx) {
  const kernels::PointBuffer* buf =
      ground_truth_buffer(ground_truth, w, ctx.buffer);
  Timer timer;
  const double on_full =
      radius_with_outliers(ground_truth, centers, cfg.z, cfg.metric(), buf);
  res.report.set("eval_ms", timer.millis());
  double direct = 0.0;
  if (cfg.with_direct_solve)
    direct = direct_radius(ground_truth, cfg, w, res.report, ctx.pool,
                           ctx.buffer);
  record_evaluation(res, std::move(centers), on_full, direct);
}

void extract_and_evaluate_source(
    PipelineResult& res, dataset::DataSource& src, const PipelineConfig& cfg,
    const std::function<void(const kernels::BufferView&,
                             kernels::PointBuffer&)>& transform) {
  if (!cfg.with_extraction || res.coreset.empty()) return;
  const Metric metric = cfg.metric();
  Timer timer;
  const Solution via =
      solve_kcenter_outliers(res.coreset, cfg.k, cfg.z, metric);
  res.report.solve_ms += timer.millis();
  timer.reset();
  const double on_full = dataset::chunked_radius_with_outliers(
      src, via.centers, cfg.z, metric, {}, transform);
  res.report.set("eval_ms", timer.millis());
  res.solution = Solution{via.centers, on_full};
  res.report.radius = on_full;
  // The direct solve needs the whole set in memory; on the out-of-core path
  // quality is reported as 1.0, matching `with_direct_solve = false`.
  res.report.quality = 1.0;
}

}  // namespace kc::engine
