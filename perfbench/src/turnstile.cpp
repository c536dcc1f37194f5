// Workload `turnstile`: the fully dynamic sketch under inserts and deletes.
//
// A planted instance of 200,000 points in R^2 (k = 3, z = 50, ε = 0.5) is
// discretized onto [Δ]^2 with Δ = 256, and make_dynamic_script adds
// 100,000 chaff points that are inserted and later deleted: about 400,000
// updates.  The sketch update path (one-sparse cells, polynomial hashes,
// F0) carries the time; batch and stream never reach this code.

#include <algorithm>
#include <cmath>
#include <vector>

#include "harness.hpp"

namespace perfbench {

namespace {

namespace engine = kc::engine;

constexpr std::size_t kPoints = 200'000;
constexpr std::size_t kChaff = 100'000;

class Turnstile final : public BenchWorkload {
 public:
  explicit Turnstile(const Params& p) {
    cfg_.k = 3;
    cfg_.z = 50;
    cfg_.eps = 0.5;
    cfg_.dim = 2;
    cfg_.norm = kc::Norm::L2;
    cfg_.seed = p.seed;
    cfg_.with_direct_solve = false;
    cfg_.delta = 256;
  }

  void setup(Recorder* rec, Metrics& layer) override {
    kc::Timer timer;
    {
      ScopedSpan span(rec, "workload.make_workload");
      w_ = engine::make_workload(kPoints, cfg_);
    }
    {
      ScopedSpan span(rec, "workload.discretize");
      w_.grid = kc::discretize(w_.planted.points, cfg_.delta);
    }
    {
      ScopedSpan span(rec, "workload.make_dynamic_script");
      w_.script = kc::make_dynamic_script(w_.grid, kChaff, cfg_.delta,
                                          cfg_.dim, cfg_.seed + 2);
    }
    layer.add("workload.generate_ms", timer.millis(), "ms");

    // The certificate in grid units: discretize scales by (Δ−1)/span and
    // rounds each coordinate, which moves a point by at most √d/2, so the
    // scaled planted centers cover the live set within
    // opt_hi·scale + √d/2.
    kc::Box box = kc::Box::empty(cfg_.dim);
    for (const auto& wp : w_.planted.points) box.extend(wp.p);
    const double scale = static_cast<double>(cfg_.delta - 1) /
                         std::max(box.max_side(), 1e-12);
    opt_grid_ = w_.planted.opt_hi * scale + std::sqrt(cfg_.dim) / 2.0;
  }

  void clear() override { w_ = engine::Workload{}; }

  [[nodiscard]] std::vector<Job> jobs() const override {
    Job j;
    j.pipeline = "dynamic";
    j.workload = &w_;
    j.cfg = cfg_;
    j.opt_hi = opt_grid_;
    j.weight = static_cast<std::int64_t>(w_.grid.size());
    j.inputs = w_.script.size();
    return {j};
  }

  std::vector<Outcome> traced_pass(Recorder& rec, Metrics& layer,
                                   Latencies& lat) override {
    ScopedSpan span(&rec, "bench.dynamic");
    kc::dynamic::DynamicCoresetOptions opt;
    opt.k = cfg_.k;
    opt.z = cfg_.z;
    opt.eps = cfg_.eps;
    opt.delta = cfg_.delta;
    opt.dim = cfg_.dim;
    opt.seed = cfg_.seed;
    opt.deterministic_recovery = cfg_.deterministic_recovery;
    const int construct_id = rec.begin("dynamic.construct");
    kc::dynamic::DynamicCoreset dc(opt);
    rec.end(construct_id);

    std::vector<double>& update_us = lat["dynamic.update"];
    std::size_t deletes = 0;
    const int loop_id = rec.begin("dynamic.update_loop");
    for (const kc::GridUpdate& up : w_.script) {
      timed_call(update_us, [&] { dc.update(up.p, up.sign); });
      if (up.sign < 0) ++deletes;
    }
    layer.add("dynamic.update_ms", rec.end(loop_id), "ms");
    const auto updates = static_cast<double>(w_.script.size());
    layer.set("dynamic.updates", updates, "count");
    layer.set("dynamic.deletes", static_cast<double>(deletes), "count");
    layer.set("dynamic.level_updates", updates * dc.grids().levels(), "count");

    const int query_id = rec.begin("dynamic.query");
    const auto q = dc.query();
    layer.add("dynamic.query_ms", rec.end(query_id), "ms");
    layer.set("dynamic.level", q.level, "count");
    layer.set("dynamic.nonempty_cells", static_cast<double>(q.nonempty_cells),
              "count");
    layer.set("sketch.words", static_cast<double>(dc.words()), "words");

    Outcome o;
    o.pipeline = "dynamic";
    o.words = dc.words();
    if (!q.ok) return {o};
    o.coreset_size = q.coreset.size();
    // Ground truth in grid coordinates: the live set after the script.
    const int gather_id = rec.begin("engine.gather_live");
    kc::WeightedSet live;
    live.reserve(w_.grid.size());
    kc::kernels::PointBuffer live_buf(cfg_.dim);
    live_buf.reserve(w_.grid.size());
    for (const auto& g : w_.grid) {
      live.push_back({g.to_point(), 1});
      live_buf.append(live.back().p);
    }
    rec.end(gather_id);
    const kc::Solution sol = traced_solve(rec, layer, q.coreset, cfg_, nullptr);
    o.radius = traced_evaluate(rec, layer, live, sol.centers, cfg_, &live_buf);
    return {o};
  }

 private:
  engine::PipelineConfig cfg_;
  engine::Workload w_;
  double opt_grid_ = 0.0;  ///< certified optimum bound in grid units
};

}  // namespace

std::unique_ptr<BenchWorkload> make_turnstile(const Params& p) {
  return std::make_unique<Turnstile>(p);
}

}  // namespace perfbench
