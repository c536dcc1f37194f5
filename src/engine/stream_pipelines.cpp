// Streaming pipelines: the paper's insertion-only coreset (Algorithm 3),
// the McCutchen–Khuller solution-only baseline, and the sliding-window
// structure (query-only summary; weights capped at z+1).
//
// All three consume the workload's arrival order.  The sliding-window
// pipeline's ground truth is the window contents (the last W arrivals);
// the other two summarize the whole stream.

#include <algorithm>
#include <iomanip>
#include <memory>
#include <sstream>

#include "dataset/source.hpp"
#include "engine/builtin.hpp"
#include "engine/registry.hpp"
#include "geometry/box.hpp"
#include "stream/insertion_only.hpp"
#include "stream/mccutchen_khuller.hpp"
#include "stream/sliding_window.hpp"
#include "util/timer.hpp"

namespace kc::engine {

namespace {

/// Arrival order view: the workload's order, or input order when empty.
std::size_t arrival(const Workload& w, std::size_t i) {
  return w.order.empty() ? i : w.order[i];
}

class InsertionPipeline final : public Pipeline {
 public:
  [[nodiscard]] std::string name() const override { return "stream-insertion"; }
  [[nodiscard]] std::string model() const override { return "stream"; }
  [[nodiscard]] std::string description() const override {
    return "insertion-only streaming coreset (Algorithm 3, Theorem 18); "
           "the threshold policy knob selects ours vs the Ceccarello shape";
  }

  [[nodiscard]] bool supports_dataset() const override { return true; }

  [[nodiscard]] PipelineResult run(const Workload& w,
                                   const PipelineConfig& cfg) const override {
    const Metric metric = cfg.metric();
    PipelineResult res;
    stream::InsertionOnlyStream s(cfg.k, cfg.z, cfg.eps, cfg.dim, metric,
                                  cfg.policy);
    Timer timer;
    if (w.from_dataset()) {
      // Out-of-core: feed the stream chunk-by-chunk in the source's
      // sequential order.  The per-point insertions are identical to the
      // in-memory loop below under an empty arrival order, so summary and
      // report are bit-identical to a materialized run; only this path's
      // memory stays O(chunk + coreset) regardless of n.
      dataset::DataSource& src = *w.source;
      KC_EXPECTS(src.dim() == cfg.dim && cfg.dim <= Point::kMaxDim);
      dataset::ChunkedReader reader(src);
      dataset::ChunkedReader::Chunk ch;
      Point p(cfg.dim);
      while (reader.next(ch))
        for (std::size_t i = 0; i < ch.view.size(); ++i) {
          for (int j = 0; j < cfg.dim; ++j) p[j] = ch.view.col(j)[i];
          s.insert_weighted(p, 1);
        }
    } else {
      for (std::size_t i = 0; i < w.n(); ++i)
        s.insert_weighted(w.planted.points[arrival(w, i)].p,
                          w.planted.points[arrival(w, i)].w);
    }
    res.report.build_ms = timer.millis();
    res.coreset = s.coreset();
    res.report.words = s.peak_words();
    res.report.set("peak_size", static_cast<double>(s.peak_size()));
    res.report.set("threshold", static_cast<double>(s.threshold()));
    res.report.set("doublings", static_cast<double>(s.doublings()));
    res.report.set("r", s.r());
    if (w.from_dataset()) {
      extract_and_evaluate_source(res, *w.source, cfg);
    } else {
      extract_and_evaluate(res, w.planted.points, cfg, w);
    }
    return res;
  }
};

class McCutchenKhullerPipeline final : public Pipeline {
 public:
  [[nodiscard]] std::string name() const override { return "stream-mk"; }
  [[nodiscard]] std::string model() const override { return "stream"; }
  [[nodiscard]] std::string description() const override {
    return "McCutchen-Khuller (4+eps) streaming baseline: exact support "
           "points, solution-only (no coreset)";
  }
  [[nodiscard]] bool preserves_weight() const override { return false; }
  [[nodiscard]] double quality_bound() const override { return 7.0; }

  [[nodiscard]] PipelineResult run(const Workload& w,
                                   const PipelineConfig& cfg) const override {
    const Metric metric = cfg.metric();
    PipelineResult res;
    stream::McCutchenKhuller mk(cfg.k, cfg.z, cfg.eps, metric);
    Timer timer;
    for (std::size_t i = 0; i < w.n(); ++i)
      mk.insert(w.planted.points[arrival(w, i)].p);
    res.report.build_ms = timer.millis();
    res.report.words =
        mk.peak_points() * static_cast<std::size_t>(cfg.dim + 1);
    res.report.set("peak_points", static_cast<double>(mk.peak_points()));
    res.report.set("instances", static_cast<double>(mk.instances()));
    if (cfg.with_extraction) {
      Timer solve;
      const Solution sol = mk.query();
      res.report.solve_ms = solve.millis();
      evaluate_centers(res, sol.centers, w.planted.points, cfg, w);
    }
    return res;
  }

 protected:
  /// One instance per (1+ε) ladder offset below 2.
  [[nodiscard]] std::string sizing_error(const PipelineConfig& cfg,
                                         const Workload&) const override {
    const double ladder = stream::McCutchenKhuller::ladder_size(cfg.eps);
    if (ladder <= stream::McCutchenKhuller::kMaxLadder) return {};
    std::ostringstream os;
    os << "eps " << cfg.eps << " gives a ladder of " << std::fixed
       << std::setprecision(0) << ladder << " instances; it runs at most "
       << stream::McCutchenKhuller::kMaxLadder;
    return os.str();
  }
};

class SlidingWindowPipeline final : public Pipeline {
 public:
  [[nodiscard]] std::string name() const override { return "stream-sliding"; }
  [[nodiscard]] std::string model() const override { return "stream"; }
  [[nodiscard]] std::string description() const override {
    return "sliding-window structure (De Berg-Monemizadeh-Zhong shape, "
           "Theorem 30 space): query-only covering with weights capped at "
           "z+1";
  }
  [[nodiscard]] bool preserves_weight() const override { return false; }
  [[nodiscard]] double quality_bound() const override {
    return 12.0;  // factor-2 ladder × reanchoring × solver, see sliding_window.hpp
  }

  [[nodiscard]] PipelineResult run(const Workload& w,
                                   const PipelineConfig& cfg) const override {
    const Metric metric = cfg.metric();
    const std::int64_t n = static_cast<std::int64_t>(w.n());
    const std::int64_t W = cfg.window > 0 ? cfg.window : n;
    // Radius ladder spanning the instance's scale: the bounding-box
    // diameter upper-bounds opt; 12 factor-2 levels below it reach any
    // plausible optimum of a planted workload.
    Box box = Box::empty(cfg.dim);
    for (const auto& wp : w.planted.points) box.extend(wp.p);
    const double r_max = std::max(box.is_empty() ? 1.0 : box.diameter(metric),
                                  1e-6);
    const double r_min = r_max / 4096.0;

    PipelineResult res;
    stream::SlidingWindow sw(cfg.k, cfg.z, cfg.eps, cfg.dim, W, r_min, r_max,
                             metric);
    Timer timer;
    for (std::int64_t t = 1; t <= n; ++t)
      sw.insert(w.planted.points[arrival(w, static_cast<std::size_t>(t - 1))].p,
                t);
    res.report.build_ms = timer.millis();
    const auto q = sw.query(n);
    res.coreset = q.coreset;
    res.report.words =
        sw.peak_records() * static_cast<std::size_t>(cfg.dim + 1);
    res.report.set("level", static_cast<double>(q.level));
    res.report.set("guess", q.guess);
    res.report.set("cover_radius", q.cover_radius);
    res.report.set("levels", static_cast<double>(sw.levels()));
    res.report.set("cap_per_level", static_cast<double>(sw.cap_per_level()));
    res.report.set("peak_records", static_cast<double>(sw.peak_records()));
    res.report.set("ok", q.level >= 0 ? 1.0 : 0.0);

    // Ground truth = the window contents: arrivals with t in (n-W, n],
    // gathered as AoS + SoA side by side so the evaluation tail runs on
    // the buffer directly.
    WeightedSet window;
    const std::int64_t first = std::max<std::int64_t>(n - W, 0);
    window.reserve(static_cast<std::size_t>(n - first));
    kernels::PointBuffer window_buf(cfg.dim);
    window_buf.reserve(static_cast<std::size_t>(n - first));
    for (std::int64_t t = first; t < n; ++t) {
      window.push_back(
          w.planted.points[arrival(w, static_cast<std::size_t>(t))]);
      window_buf.append(window.back().p);
    }
    ExecContext tail;
    tail.buffer = &window_buf;
    extract_and_evaluate(res, window, cfg, w, tail);
    return res;
  }
};

}  // namespace

void register_stream_pipelines(Registry& reg) {
  reg.add("stream-insertion",
          [] { return std::make_unique<InsertionPipeline>(); });
  reg.add("stream-mk",
          [] { return std::make_unique<McCutchenKhullerPipeline>(); });
  reg.add("stream-sliding",
          [] { return std::make_unique<SlidingWindowPipeline>(); });
}

}  // namespace kc::engine
