// Fully dynamic pipeline: Algorithm 5's sketch hierarchy over [Δ]^d.
//
// The workload's real-valued points are discretized onto the integer grid
// (workload/generators.hpp discretize); the sketch is driven either by the
// workload's turnstile script (inserts + deletes whose final alive set is
// the discretized instance) or, when no script is given, by plain
// insertions, either way through DynamicCoreset::update_batch.  Ground
// truth for quality is the live set *in grid coordinates* — the space the
// relaxed coreset lives in.

#include <algorithm>
#include <memory>
#include <sstream>

#include "dataset/source.hpp"
#include "dynamic/dynamic_coreset.hpp"
#include "engine/builtin.hpp"
#include "engine/registry.hpp"
#include "geometry/box.hpp"
#include "util/timer.hpp"

namespace kc::engine {

namespace {

// The sketch and query fields of every dynamic report (after build_ms).
void stamp_query(PipelineReport& report, const dynamic::DynamicCoreset& dc,
                 const dynamic::DynamicCoreset::QueryResult& q,
                 std::uint64_t updates) {
  report.words = dc.words();
  report.set("grid_space", 1.0);  // radius is in [Δ]^d coordinates
  report.set("ok", q.ok ? 1.0 : 0.0);
  report.set("level", static_cast<double>(q.level));
  report.set("nonempty_cells", static_cast<double>(q.nonempty_cells));
  report.set("cell_side", q.cell_side);
  report.set("levels", static_cast<double>(dc.grids().levels()));
  report.set("sample_budget", static_cast<double>(dc.sample_budget()));
  report.set("live", static_cast<double>(dc.live_points()));
  report.set("update_us", updates == 0 ? 0.0
                                       : report.build_ms * 1e3 /
                                             static_cast<double>(updates));
}

class DynamicPipeline final : public Pipeline {
 public:
  [[nodiscard]] std::string name() const override { return "dynamic"; }
  [[nodiscard]] std::string model() const override { return "dynamic"; }
  [[nodiscard]] std::string description() const override {
    return "fully dynamic (turnstile) coreset sketch over [Delta]^d "
           "(Algorithm 5, Theorem 21)";
  }
  [[nodiscard]] double quality_bound() const override {
    return 8.0;  // relaxed coreset: cell-center displacement adds slack
  }
  [[nodiscard]] bool supports_dataset() const override { return true; }

  [[nodiscard]] PipelineResult run(const Workload& w,
                                   const PipelineConfig& cfg) const override {
    const dynamic::DynamicCoresetOptions opt = options(cfg);
    if (w.from_dataset()) return run_from_source(*w.source, cfg, opt);

    // The workload's grid and script are used in place; only a missing one
    // is built (and owned) here.
    std::vector<GridPoint> own_grid;
    if (w.grid.empty()) own_grid = discretize(w.planted.points, cfg.delta);
    const std::vector<GridPoint>& grid = w.grid.empty() ? own_grid : w.grid;
    DynamicScript own_script;
    if (w.script.empty()) {
      own_script.reserve(grid.size());
      for (const auto& g : grid) own_script.push_back({g, +1});
    }
    const DynamicScript& script = w.script.empty() ? own_script : w.script;

    PipelineResult res;
    dynamic::DynamicCoreset dc(opt);
    Timer timer;
    dc.update_batch(script);
    res.report.build_ms = timer.millis();

    const auto q = dc.query();
    stamp_query(res.report, dc, q, script.size());
    if (!q.ok) return res;  // no recoverable level: report without a summary

    res.coreset = q.coreset;
    // Ground truth in grid coordinates: the live multiset after the script
    // (make_dynamic_script guarantees it equals the discretized instance).
    // Built as AoS + SoA side by side so the evaluation tail runs on the
    // buffer directly.
    WeightedSet live;
    live.reserve(grid.size());
    kernels::PointBuffer live_buf(cfg.dim);
    live_buf.reserve(grid.size());
    for (const auto& g : grid) {
      live.push_back({g.to_point(), 1});
      live_buf.append(live.back().p);
    }
    ExecContext tail;
    tail.buffer = &live_buf;
    extract_and_evaluate(res, live, cfg, w, tail);
    return res;
  }

 protected:
  /// Cell ids pack d·⌈log2 Δ⌉ bits into 62; s = k(4√d/ε)^d + z, in double,
  /// must be representable; the sketch words must fit the memory budget.
  [[nodiscard]] std::string sizing_error(const PipelineConfig& cfg,
                                         const Workload&) const override {
    std::ostringstream os;
    if (!GridHierarchy::fits(cfg.delta, cfg.dim)) {
      os << "delta " << cfg.delta << " in " << cfg.dim << " dimensions needs "
         << cfg.dim * GridHierarchy::axis_bits(cfg.delta)
         << " bits of grid cell id; the sketch packs at most 62";
      return os.str();
    }
    const double s =
        dynamic::dynamic_sample_budget_real(cfg.k, cfg.z, cfg.eps, cfg.dim);
    if (!(s <= static_cast<double>(dynamic::kMaxSampleBudget))) {
      os << "k = " << cfg.k << ", z = " << cfg.z << ", eps = " << cfg.eps
         << ", dim = " << cfg.dim << " give a sample budget of " << s
         << " cells; the largest representable sketch holds "
         << dynamic::kMaxSampleBudget;
      return os.str();
    }
    return memory_error(
        static_cast<double>(sizeof(std::uint64_t)) *
            dynamic::DynamicCoreset::predicted_words(options(cfg)),
        "the sketch");
  }

 private:
  [[nodiscard]] static dynamic::DynamicCoresetOptions options(
      const PipelineConfig& cfg) {
    return {.k = cfg.k, .z = cfg.z, .eps = cfg.eps, .delta = cfg.delta,
            .dim = cfg.dim, .seed = cfg.seed,
            .deterministic_recovery = cfg.deterministic_recovery};
  }

  /// Out-of-core run: one discretizing pass feeds the sketch, a second
  /// (chunk-transformed) pass evaluates.  The scaling constants come from
  /// the source's exact bbox — min/max commute, so they equal the ones
  /// `discretize` derives from the materialized set, making every snapped
  /// coordinate (and hence sketch, coreset, and radius) bit-identical to
  /// the in-memory run.  Memory stays O(chunk + sketch) at any n.
  [[nodiscard]] static PipelineResult run_from_source(
      dataset::DataSource& src, const PipelineConfig& cfg,
      const dynamic::DynamicCoresetOptions& opt) {
    KC_EXPECTS(src.dim() == cfg.dim && cfg.dim <= Point::kMaxDim);
    Point lo(cfg.dim), hi(cfg.dim);
    for (int j = 0; j < cfg.dim; ++j) {
      lo[j] = src.box_lo()[static_cast<std::size_t>(j)];
      hi[j] = src.box_hi()[static_cast<std::size_t>(j)];
    }
    const Box box(lo, hi);
    const double span = std::max(box.max_side(), 1e-12);
    const double scale = static_cast<double>(cfg.delta - 1) / span;
    const auto snap_row = [&box, scale, &cfg](
                              const kernels::BufferView& v,
                              std::size_t i) {
      Point scaled(cfg.dim);
      for (int j = 0; j < cfg.dim; ++j)
        scaled[j] = (v.col(j)[i] - box.lo()[j]) * scale;
      return snap_to_grid(scaled, cfg.delta);
    };

    PipelineResult res;
    dynamic::DynamicCoreset dc(opt);
    Timer timer;
    {
      dataset::ChunkedReader reader(src);
      dataset::ChunkedReader::Chunk ch;
      // Snapped inserts go through one buffer of update_batch's chunk size
      // (a reader chunk holds up to a million rows), allocated once.
      std::vector<GridUpdate> batch;
      batch.reserve(dynamic::DynamicCoreset::kBatchChunk);
      while (reader.next(ch)) {
        for (std::size_t i = 0; i < ch.view.size(); ++i) {
          batch.push_back({snap_row(ch.view, i), +1});
          if (batch.size() == batch.capacity()) {
            dc.update_batch(batch);
            batch.clear();
          }
        }
      }
      dc.update_batch(batch);
    }
    res.report.build_ms = timer.millis();

    const auto q = dc.query();
    stamp_query(res.report, dc, q, src.size());
    if (!q.ok) return res;

    res.coreset = q.coreset;
    // Ground truth in grid coordinates, produced chunk-by-chunk by the
    // same snapping the sketch consumed.
    extract_and_evaluate_source(
        res, src, cfg,
        [&snap_row](const kernels::BufferView& in,
                    kernels::PointBuffer& scratch) {
          for (std::size_t i = 0; i < in.size(); ++i)
            scratch.append(snap_row(in, i).to_point());
        });
    return res;
  }
};

}  // namespace

void register_dynamic_pipelines(Registry& reg) {
  reg.add("dynamic", [] { return std::make_unique<DynamicPipeline>(); });
}

}  // namespace kc::engine
