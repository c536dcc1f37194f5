#include "harness.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace perfbench {

namespace engine = kc::engine;

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = Value{value, unit};
}

void Metrics::add(const std::string& name, double value,
                  const std::string& unit) {
  Value& v = values_[name];
  v.value += value;
  v.unit = unit;
}

double Metrics::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.value;
}

std::unique_ptr<BenchWorkload> make_bench_workload(const std::string& name,
                                                   const Params& p) {
  if (name == "batch") return make_batch(p);
  if (name == "stream") return make_stream(p);
  if (name == "turnstile") return make_turnstile(p);
  return nullptr;
}

EnginePass run_engine_pass(const std::vector<Job>& jobs, Checks& checks) {
  EnginePass pass;
  for (const Job& job : jobs) {
    kc::Timer timer;
    engine::PipelineResult res = engine::run(job.pipeline, *job.workload,
                                             job.cfg);
    const double wall_ms = timer.millis();
    const engine::PipelineReport& r = res.report;
    pass.wall_s += wall_ms * 1e-3;
    pass.run_s.push_back(wall_ms * 1e-3);
    pass.build_ms += r.build_ms;
    pass.glue_ms += wall_ms - r.build_ms - r.solve_ms - r.get("eval_ms");
    pass.inputs += job.inputs;
    pass.words += r.words;
    pass.radius_ratio = std::max(pass.radius_ratio, r.radius / job.opt_hi);

    // Output checks, outside the timed region.
    const auto pipeline = engine::registry().make(job.pipeline);
    const double bound = pipeline->quality_bound() * job.opt_hi;
    char what[256];
    std::snprintf(what, sizeof(what), "%s: radius %.17g <= %g * opt_hi %.17g",
                  job.pipeline.c_str(), r.radius, pipeline->quality_bound(),
                  job.opt_hi);
    checks.expect(r.radius > 0.0 && r.radius <= bound + 1e-9, what);
    if (pipeline->preserves_weight()) {
      const std::int64_t w = kc::total_weight(res.coreset);
      std::snprintf(what, sizeof(what),
                    "%s: summary weight %lld == input weight %lld",
                    job.pipeline.c_str(), static_cast<long long>(w),
                    static_cast<long long>(job.weight));
      checks.expect(w == job.weight, what);
    }
    if (job.pipeline == "dynamic")
      checks.expect(r.get("ok") > 0.5, "dynamic: query ok");
    if (job.pipeline == "stream-sliding")
      checks.expect(r.get("level", -1.0) >= 0.0, "stream-sliding: level >= 0");
    pass.reports.push_back(r);
  }
  return pass;
}

void check_traced(const std::vector<Outcome>& traced, const EnginePass& pass,
                  Checks& checks) {
  checks.expect(traced.size() == pass.reports.size(),
                "traced pass runs every pipeline of the engine pass");
  const std::size_t n = std::min(traced.size(), pass.reports.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Outcome& t = traced[i];
    const engine::PipelineReport& r = pass.reports[i];
    char what[320];
    std::snprintf(what, sizeof(what),
                  "%s: traced (coreset %zu, words %zu, radius %.17g) == "
                  "engine (coreset %zu, words %zu, radius %.17g)",
                  r.pipeline.c_str(), t.coreset_size, t.words, t.radius,
                  r.coreset_size, r.words, r.radius);
    checks.expect(t.pipeline == r.pipeline &&
                      t.coreset_size == r.coreset_size && t.words == r.words &&
                      std::bit_cast<std::uint64_t>(t.radius) ==
                          std::bit_cast<std::uint64_t>(r.radius),
                  what);
  }
}

kc::Solution traced_solve(Recorder& rec, Metrics& layer,
                          const kc::WeightedSet& summary,
                          const engine::PipelineConfig& cfg,
                          kc::ThreadPool* pool) {
  kc::OracleOptions oracle;
  oracle.exec.pool = pool;
  const int id = rec.begin("core.solve");
  kc::Solution sol =
      kc::solve_kcenter_outliers(summary, cfg.k, cfg.z, cfg.metric(), oracle);
  layer.add("core.solve_ms", rec.end(id), "ms");
  layer.add("core.solve_points", static_cast<double>(summary.size()),
            "count");
  return sol;
}

double traced_evaluate(Recorder& rec, Metrics& layer,
                       const kc::WeightedSet& ground_truth,
                       const kc::PointSet& centers,
                       const engine::PipelineConfig& cfg,
                       const kc::kernels::PointBuffer* buf) {
  const int id = rec.begin("core.evaluate");
  const double radius = kc::radius_with_outliers(ground_truth, centers, cfg.z,
                                                 cfg.metric(), buf);
  layer.add("core.eval_ms", rec.end(id), "ms");
  layer.add("core.eval_points", static_cast<double>(ground_truth.size()),
            "count");
  return radius;
}

}  // namespace perfbench
