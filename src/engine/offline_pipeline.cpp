// Offline pipeline: MBCConstruction (Algorithm 1) on the full point set,
// then the shared extraction tail.  The reference configuration every
// distributed/streaming pipeline's quality is compared against.

#include <memory>

#include "core/mbc.hpp"
#include "engine/builtin.hpp"
#include "engine/registry.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace kc::engine {

namespace {

class OfflinePipeline final : public Pipeline {
 public:
  [[nodiscard]] std::string name() const override { return "offline"; }
  [[nodiscard]] std::string model() const override { return "offline"; }
  [[nodiscard]] std::string description() const override {
    return "MBCConstruction (Algorithm 1) + Charikar extraction";
  }

  [[nodiscard]] PipelineResult run(const Workload& w,
                                   const PipelineConfig& cfg) const override {
    const Metric metric = cfg.metric();
    ThreadPool pool(cfg.num_threads);
    OracleOptions oracle;
    oracle.exec.pool = &pool;
    oracle.exec.buffer = w.buffer();  // canonical SoA input — no re-pack
    PipelineResult res;
    Timer timer;
    const MiniBallCovering mbc =
        mbc_construct(w.planted.points, cfg.k, cfg.z, cfg.eps, metric, oracle);
    res.report.build_ms = timer.millis();
    res.coreset = mbc.reps;
    res.report.words =
        res.coreset.size() * static_cast<std::size_t>(cfg.dim + 1);
    res.report.set("cover_radius", mbc.cover_radius);
    res.report.set("oracle_radius", mbc.oracle_radius);
    res.report.set("threads", static_cast<double>(pool.num_threads()));
    ExecContext tail;
    tail.pool = &pool;
    extract_and_evaluate(res, w.planted.points, cfg, w, tail);
    return res;
  }
};

}  // namespace

void register_offline_pipelines(Registry& reg) {
  reg.add("offline", [] { return std::make_unique<OfflinePipeline>(); });
}

}  // namespace kc::engine
