// Workload `stream`: one time-ordered drifting instance through both
// streaming models.
//
// make_drifting with n = 1,000,000 points in R^2 (L2), k = 3, z = 100,
// ε = 0.5.  Set-up writes it to a .kcb file; stream-insertion streams that
// file out of core (grow-and-recompress), stream-sliding runs on the
// in-memory copy with window W = n/8 (insert-and-expire).  The only
// workload that reaches the stream and dataset layers.

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

namespace {

namespace engine = kc::engine;
namespace dataset = kc::dataset;

constexpr std::size_t kPoints = 1'000'000;

class Stream final : public BenchWorkload {
 public:
  explicit Stream(const Params& p)
      : path_((std::filesystem::path(p.out_dir) /
               ("stream-seed" + std::to_string(p.seed) + ".kcb"))
                  .string()) {
    cfg_.k = 3;
    cfg_.z = 100;
    cfg_.eps = 0.5;
    cfg_.dim = 2;
    cfg_.norm = kc::Norm::L2;
    cfg_.seed = p.seed;
    cfg_.with_direct_solve = false;
  }

  ~Stream() override { clear(); }

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;
  Stream(Stream&&) = delete;
  Stream& operator=(Stream&&) = delete;

  void setup(Recorder* rec, Metrics& layer) override {
    kc::PlantedConfig pc;
    pc.n = kPoints;
    pc.k = cfg_.k;
    pc.z = cfg_.z;
    pc.dim = cfg_.dim;
    pc.norm = cfg_.norm;
    pc.seed = cfg_.seed;
    {
      ScopedSpan span(rec, "workload.make_drifting");
      kc::Timer timer;
      mem_.planted = kc::make_drifting(pc);
      layer.add("workload.generate_ms", timer.millis(), "ms");
    }
    {
      ScopedSpan span(rec, "dataset.write_kcb");
      kc::Timer timer;
      dataset::write_kcb(path_, mem_.planted.buffer);
      layer.add("dataset.write_ms", timer.millis(), "ms");
    }
    disk_ = engine::make_dataset_workload(
        std::make_shared<dataset::KcbSource>(path_));
    window_ = static_cast<std::int64_t>(mem_.n() / 8);
  }

  void clear() override {
    disk_ = engine::Workload{};
    mem_ = engine::Workload{};
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }

  [[nodiscard]] std::vector<Job> jobs() const override {
    Job insertion;
    insertion.pipeline = "stream-insertion";
    insertion.workload = &disk_;
    insertion.cfg = cfg_;
    insertion.opt_hi = mem_.planted.opt_hi;
    insertion.weight = static_cast<std::int64_t>(mem_.n());
    insertion.inputs = mem_.n();
    Job sliding = insertion;
    sliding.pipeline = "stream-sliding";
    sliding.workload = &mem_;
    sliding.cfg.window = window_;
    return {insertion, sliding};
  }

  std::vector<Outcome> traced_pass(Recorder& rec, Metrics& layer,
                                   Latencies& lat) override {
    return {insertion(rec, layer, lat), sliding(rec, layer, lat)};
  }

 private:
  /// Mirrors stream-insertion on a dataset workload: chunked reads of the
  /// .kcb file, one insert per point, chunked evaluation on the file.
  Outcome insertion(Recorder& rec, Metrics& layer, Latencies& lat) {
    ScopedSpan span(&rec, "bench.stream-insertion");
    const kc::Metric metric = cfg_.metric();
    dataset::DataSource& src = *disk_.source;
    kc::stream::InsertionOnlyStream s(cfg_.k, cfg_.z, cfg_.eps, cfg_.dim,
                                      metric, cfg_.policy);
    std::vector<double>& insert_us = lat["stream.insert"];
    dataset::ChunkedReader reader(src);
    dataset::ChunkedReader::Chunk ch;
    std::vector<kc::Point> rows;
    double read_ms = 0.0, insert_ms = 0.0, recompress_ms = 0.0;
    int recompressions = 0;
    for (;;) {
      // The read covers the chunk hand-off and the first touch of its
      // pages (the copy out of the mapping).
      const int read_id = rec.begin("dataset.read_chunk");
      const bool more = reader.next(ch);
      if (more) {
        rows.assign(ch.view.size(), kc::Point(cfg_.dim));
        for (int j = 0; j < cfg_.dim; ++j) {
          const double* col = ch.view.col(j);
          for (std::size_t i = 0; i < rows.size(); ++i) rows[i][j] = col[i];
        }
      }
      read_ms += rec.end(read_id);
      if (!more) break;
      const int insert_id = rec.begin("stream.insert_chunk");
      for (const kc::Point& p : rows) {
        const int doublings = s.doublings();
        const auto t0 = Clock::now();
        s.insert_weighted(p, 1);
        const double us = micros_between(t0, Clock::now());
        insert_us.push_back(us);
        if (s.doublings() != doublings) {
          recompress_ms += us * 1e-3;
          ++recompressions;
        }
      }
      insert_ms += rec.end(insert_id);
    }
    const double read_mb = static_cast<double>(src.size()) * cfg_.dim * 8.0 /
                           (1024.0 * 1024.0);
    layer.add("dataset.read_ms", read_ms, "ms");
    layer.add("dataset.read_mb", read_mb, "MB");
    layer.set("dataset.read_mb_per_s", read_mb / (read_ms * 1e-3), "MB/s");
    layer.add("stream.insert_ms", insert_ms, "ms");
    layer.add("stream.recompress_ms", recompress_ms, "ms");
    layer.add("stream.recompressions", recompressions, "count");
    layer.set("stream.peak_size", static_cast<double>(s.peak_size()),
              "count");

    Outcome o;
    o.pipeline = "stream-insertion";
    o.coreset_size = s.coreset().size();
    o.words = s.peak_words();
    const kc::Solution sol =
        traced_solve(rec, layer, s.coreset(), cfg_, nullptr);
    const int eval_id = rec.begin("dataset.chunked_radius_with_outliers");
    o.radius = dataset::chunked_radius_with_outliers(src, sol.centers, cfg_.z,
                                                     metric);
    layer.add("core.eval_ms", rec.end(eval_id), "ms");
    layer.add("core.eval_points", static_cast<double>(src.size()), "count");
    return o;
  }

  /// Mirrors stream-sliding: radius ladder from the bounding box, one
  /// insert per arrival, a query at the end, evaluation on the window.
  Outcome sliding(Recorder& rec, Metrics& layer, Latencies& lat) {
    ScopedSpan span(&rec, "bench.stream-sliding");
    const kc::Metric metric = cfg_.metric();
    const kc::WeightedSet& pts = mem_.planted.points;
    const auto n = static_cast<std::int64_t>(pts.size());
    const int box_id = rec.begin("engine.window_ladder_bounds");
    kc::Box box = kc::Box::empty(cfg_.dim);
    for (const auto& wp : pts) box.extend(wp.p);
    const double r_max =
        std::max(box.is_empty() ? 1.0 : box.diameter(metric), 1e-6);
    const double r_min = r_max / 4096.0;
    rec.end(box_id);

    kc::stream::SlidingWindow sw(cfg_.k, cfg_.z, cfg_.eps, cfg_.dim, window_,
                                 r_min, r_max, metric);
    std::vector<double>& insert_us = lat["stream.window_insert"];
    const int loop_id = rec.begin("stream.window_insert_loop");
    for (std::int64_t t = 1; t <= n; ++t) {
      const kc::Point& p = pts[static_cast<std::size_t>(t - 1)].p;
      timed_call(insert_us, [&] { sw.insert(p, t); });
    }
    layer.add("stream.window_insert_ms", rec.end(loop_id), "ms");
    const int query_id = rec.begin("stream.window_query");
    const auto q = sw.query(n);
    layer.add("stream.window_query_ms", rec.end(query_id), "ms");
    const auto peak = static_cast<double>(sw.peak_records());
    layer.set("stream.window_peak_records", peak, "count");
    layer.set("stream.window_records_per_point",
              peak / static_cast<double>(window_), "ratio");

    Outcome o;
    o.pipeline = "stream-sliding";
    o.coreset_size = q.coreset.size();
    o.words = sw.peak_records() * static_cast<std::size_t>(cfg_.dim + 1);
    const int gather_id = rec.begin("engine.gather_window");
    const std::int64_t first = std::max<std::int64_t>(n - window_, 0);
    kc::WeightedSet win;
    win.reserve(static_cast<std::size_t>(n - first));
    kc::kernels::PointBuffer win_buf(cfg_.dim);
    win_buf.reserve(static_cast<std::size_t>(n - first));
    for (std::int64_t t = first; t < n; ++t) {
      win.push_back(pts[static_cast<std::size_t>(t)]);
      win_buf.append(win.back().p);
    }
    rec.end(gather_id);
    const kc::Solution sol = traced_solve(rec, layer, q.coreset, cfg_, nullptr);
    o.radius = traced_evaluate(rec, layer, win, sol.centers, cfg_, &win_buf);
    return o;
  }

  std::string path_;
  engine::PipelineConfig cfg_;
  engine::Workload mem_;   ///< the drifting instance, in memory
  engine::Workload disk_;  ///< the same points, read from path_
  std::int64_t window_ = 0;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_stream(const Params& p) {
  return std::make_unique<Stream>(p);
}

}  // namespace perfbench
