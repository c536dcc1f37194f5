// Workload `batch`: one planted instance through the offline pipeline and
// the paper's three MPC pipelines.
//
// n = 1,000,000 points in R^2 (L2), k = 3, z = 200, ε = 0.5; the MPC runs
// use 16 machines, the adversarial EvenSorted partition (mpc-1round keeps
// its Random one), the local transport and a 2-thread pool.  Core (oracle
// ladder, mini-ball covers), the MPC map phase and the pool carry the
// time; stream and sketch do no work here.

#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

namespace {

namespace engine = kc::engine;
namespace mpc = kc::mpc;

constexpr std::size_t kPoints = 1'000'000;

const char* const kPipelines[] = {"offline", "mpc-2round", "mpc-1round",
                                  "mpc-rround"};

class Batch final : public BenchWorkload {
 public:
  explicit Batch(const Params& p) {
    cfg_.k = 3;
    cfg_.z = 200;
    cfg_.eps = 0.5;
    cfg_.dim = 2;
    cfg_.norm = kc::Norm::L2;
    cfg_.seed = p.seed;
    cfg_.num_threads = 2;
    cfg_.with_direct_solve = false;
    cfg_.machines = 16;
    cfg_.backend = mpc::Backend::Local;
    cfg_.partition = mpc::PartitionKind::EvenSorted;
    cfg_.rounds = 2;
  }

  void setup(Recorder* rec, Metrics& layer) override {
    ScopedSpan span(rec, "workload.make_workload");
    kc::Timer timer;
    w_ = engine::make_workload(kPoints, cfg_);
    layer.add("workload.generate_ms", timer.millis(), "ms");
  }

  void clear() override { w_ = engine::Workload{}; }

  [[nodiscard]] std::vector<Job> jobs() const override {
    std::vector<Job> out;
    for (const char* name : kPipelines) {
      Job j;
      j.pipeline = name;
      j.workload = &w_;
      j.cfg = cfg_;
      j.opt_hi = w_.planted.opt_hi;
      j.weight = static_cast<std::int64_t>(w_.n());
      j.inputs = w_.n();
      out.push_back(j);
    }
    return out;
  }

  std::vector<Outcome> traced_pass(Recorder& rec, Metrics& layer,
                                   Latencies&) override {
    std::vector<Outcome> out;
    for (const std::string name : kPipelines)
      out.push_back(name == "offline" ? offline(rec, layer)
                                      : mpc_pipeline(name, rec, layer));
    const double merged = layer.get("mpc.merged_points");
    if (merged > 0.0)
      layer.set("mpc.coreset_over_merged",
                layer.get("mpc.merged_coreset_points") / merged, "ratio");
    return out;
  }

 private:
  /// Mirrors the offline pipeline: MBCConstruction on the planted points.
  Outcome offline(Recorder& rec, Metrics& layer) {
    ScopedSpan span(&rec, "bench.offline");
    const kc::Metric metric = cfg_.metric();
    const int pool_id = rec.begin("util.thread_pool");
    kc::ThreadPool pool(cfg_.num_threads);
    rec.end(pool_id);
    kc::OracleOptions oracle;
    oracle.exec.pool = &pool;
    oracle.exec.buffer = w_.buffer();
    const int mbc_id = rec.begin("core.mbc_construct");
    const kc::MiniBallCovering mbc = kc::mbc_construct(
        w_.planted.points, cfg_.k, cfg_.z, cfg_.eps, metric, oracle);
    layer.add("core.mbc_ms", rec.end(mbc_id), "ms");
    Outcome o;
    o.pipeline = "offline";
    o.coreset_size = mbc.reps.size();
    o.words = mbc.reps.size() * static_cast<std::size_t>(cfg_.dim + 1);
    const kc::Solution sol = traced_solve(rec, layer, mbc.reps, cfg_, &pool);
    o.radius = traced_evaluate(rec, layer, w_.planted.points, sol.centers,
                               cfg_, w_.buffer());
    return o;
  }

  /// Mirrors engine's MPC pipelines: partition, transport, pool, the
  /// algorithm on the simulator, then the extraction tail.
  Outcome mpc_pipeline(const std::string& name, Recorder& rec,
                       Metrics& layer) {
    ScopedSpan span(&rec, "bench." + name);
    const kc::Metric metric = cfg_.metric();
    const mpc::PartitionKind kind = name == "mpc-1round"
                                        ? mpc::PartitionKind::Random
                                        : cfg_.partition;
    const int part_id = rec.begin("mpc.partition_points");
    const std::vector<kc::WeightedSet> parts = mpc::partition_points(
        w_.planted.points, cfg_.machines, kind, cfg_.partition_seed);
    layer.add("mpc.partition_ms", rec.end(part_id), "ms");
    int dim = 1;
    for (const auto& part : parts)
      if (!part.empty()) {
        dim = part.front().p.dim();
        break;
      }
    const int open_id = rec.begin("mpc.open_transport");
    std::unique_ptr<mpc::Transport> transport =
        mpc::make_transport(cfg_.backend);
    transport->open(cfg_.machines, dim);
    rec.end(open_id);
    const int pool_id = rec.begin("util.thread_pool");
    kc::ThreadPool pool(cfg_.num_threads);
    rec.end(pool_id);
    mpc::FaultInjector faults(cfg_.fault_config());
    mpc::ExecContext ctx;
    ctx.pool = &pool;
    ctx.faults = &faults;
    ctx.transport = transport.get();

    kc::WeightedSet coreset;
    mpc::MpcStats stats;
    std::size_t merged = 0;
    const int coreset_id = rec.begin("mpc." + name);
    if (name == "mpc-2round") {
      mpc::TwoRoundOptions opt;
      opt.eps = cfg_.eps;
      auto res =
          mpc::two_round_coreset(parts, cfg_.k, cfg_.z, metric, ctx, opt);
      coreset = std::move(res.coreset);
      merged = res.merged.size();
      stats = std::move(res.stats);
    } else if (name == "mpc-1round") {
      mpc::OneRoundOptions opt;
      opt.eps = cfg_.eps;
      auto res = mpc::one_round_coreset(parts, cfg_.k, cfg_.z, w_.n(), metric,
                                        ctx, opt);
      coreset = std::move(res.coreset);
      merged = res.merged.size();
      stats = std::move(res.stats);
    } else {
      mpc::MultiRoundOptions opt;
      opt.eps = cfg_.eps;
      opt.rounds = cfg_.rounds;
      auto res =
          mpc::multi_round_coreset(parts, cfg_.k, cfg_.z, metric, ctx, opt);
      coreset = std::move(res.coreset);
      stats = std::move(res.stats);
    }
    layer.add("mpc.coreset_ms." + name, rec.end(coreset_id), "ms");
    layer.add("mpc.map_ms", stats.map_ms, "ms");
    layer.add("mpc.route_ms", stats.route_ms, "ms");
    layer.add("mpc.rounds", stats.rounds, "count");
    layer.add("mpc.comm_words", static_cast<double>(stats.total_comm_words),
              "words");
    const auto max_worker = static_cast<double>(stats.max_worker_words());
    if (max_worker > layer.get("mpc.max_worker_words"))
      layer.set("mpc.max_worker_words", max_worker, "words");
    const auto coord = static_cast<double>(stats.coordinator_words());
    if (coord > layer.get("mpc.coord_words"))
      layer.set("mpc.coord_words", coord, "words");
    if (merged > 0) {
      layer.add("mpc.merged_points", static_cast<double>(merged), "count");
      layer.add("mpc.merged_coreset_points",
                static_cast<double>(coreset.size()), "count");
    }

    Outcome o;
    o.pipeline = name;
    o.coreset_size = coreset.size();
    o.words = stats.max_worker_words();
    const kc::Solution sol = traced_solve(rec, layer, coreset, cfg_, &pool);
    o.radius = traced_evaluate(rec, layer, w_.planted.points, sol.centers,
                               cfg_, w_.buffer());
    return o;
  }

  engine::PipelineConfig cfg_;
  engine::Workload w_;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_batch(const Params& p) {
  return std::make_unique<Batch>(p);
}

}  // namespace perfbench
