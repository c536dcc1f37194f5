// MPC pipelines: the paper's three algorithms (2-round deterministic,
// 1-round randomized, R-round trade-off) and the two Table-1 baselines
// (Ceccarello et al. 1-round, Guha et al. local-z), all running on the
// same measured `mpc::Simulator` and reporting the same storage /
// communication quantities.
//
// Shared extra keys: "merged_size" (coordinator inbound before
// recompression), "coord_words", plus per-algorithm diagnostics
// ("r_hat"/"sum_guesses"/"eps_effective", "z_local", "beta", "tau").

#include <memory>

#include "engine/builtin.hpp"
#include "engine/registry.hpp"
#include "mpc/ceccarello.hpp"
#include "mpc/faults.hpp"
#include "mpc/multi_round.hpp"
#include "mpc/one_round.hpp"
#include "mpc/partition.hpp"
#include "mpc/simulator.hpp"
#include "mpc/transport.hpp"
#include "mpc/two_round.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace kc::engine {

namespace {

class MpcPipeline : public Pipeline {
 public:
  [[nodiscard]] std::string model() const final { return "mpc"; }

  [[nodiscard]] PipelineResult run(const Workload& w,
                                   const PipelineConfig& cfg) const final {
    const auto parts = mpc::partition_points(
        w.planted.points, cfg.machines, partition_kind(cfg),
        cfg.partition_seed);
    // One pool per run: the simulator fans the per-machine map phase out
    // over it, and the extraction tail reuses it for the batch kernels.
    // Outputs are bit-identical for every cfg.num_threads (the registered
    // pipelines are swept over thread counts in tests/test_parallel.cpp).
    ThreadPool pool(cfg.num_threads);
    // One injector per run: plan + policy + accounting + the permanent dead
    // set.  An inactive plan (all probabilities zero) never fires.
    mpc::FaultInjector faults(cfg.fault);
    // One transport per run; the simulator opens it on its topology.
    mpc::Transport transport(cfg.backend);
    mpc::ExecContext ctx;
    ctx.pool = &pool;
    ctx.faults = &faults;
    ctx.transport = &transport;
    PipelineResult res;
    Timer timer;
    const mpc::MpcStats stats = run_mpc(parts, w, cfg, res, ctx);
    res.report.build_ms = timer.millis();
    res.report.rounds = stats.rounds;
    res.report.words = stats.max_worker_words();
    res.report.comm_words = stats.total_comm_words;
    res.report.set("coord_words",
                   static_cast<double>(stats.coordinator_words()));
    res.report.set("threads", static_cast<double>(stats.threads));
    res.report.set("map_ms", stats.map_ms);
    // Measured wire traffic is stamped only for the wire backend: the
    // local hand-off moves no bytes, and leaving the keys out keeps
    // local-backend reports byte-identical to the historical ones.
    if (cfg.backend == mpc::Backend::Wire)
      stamp_wire_extras(res.report, stats);
    if (faults.enabled()) stamp_fault_extras(res.report, stats.faults);
    extract_and_evaluate(res, w.planted.points, cfg, w, ctx);
    return res;
  }

 protected:
  /// Which partition the pipeline feeds the simulator (the randomized
  /// 1-round algorithm overrides this: its guarantee needs Random).
  [[nodiscard]] virtual mpc::PartitionKind partition_kind(
      const PipelineConfig& cfg) const {
    return cfg.partition;
  }

  /// Runs the algorithm, fills `res.coreset` + algorithm-specific extras,
  /// and returns the simulator stats.  `ctx` carries the run's execution
  /// environment: the pool driving the map phase, the (possibly inactive)
  /// fault plan, and the already-opened transport.
  [[nodiscard]] virtual mpc::MpcStats run_mpc(
      const std::vector<WeightedSet>& parts, const Workload& w,
      const PipelineConfig& cfg, PipelineResult& res,
      const mpc::ExecContext& ctx) const = 0;

 private:
  /// Measured transport traffic next to the predicted words accounting.
  /// `wire_ratio` compares encoded frame bytes against the model's
  /// `comm_words` at 8 bytes/word; framing overhead keeps it above 1, and
  /// one frame per attempt keeps it well under 2 for any non-trivial
  /// payload.
  static void stamp_wire_extras(PipelineReport& rep,
                                const mpc::MpcStats& stats) {
    rep.set("wire_bytes", static_cast<double>(stats.wire.bytes));
    rep.set("wire_frames", static_cast<double>(stats.wire.frames));
    if (stats.total_comm_words > 0)
      rep.set("wire_ratio",
              static_cast<double>(stats.wire.bytes) /
                  (8.0 * static_cast<double>(stats.total_comm_words)));
    rep.set("route_ms", stats.route_ms);
  }

  /// Fault accounting lands in the report only when injection was active,
  /// so fault-free reports carry no fault keys.
  static void stamp_fault_extras(PipelineReport& rep,
                                 const mpc::FaultStats& fs) {
    rep.set("fault_crashes", static_cast<double>(fs.crashes));
    rep.set("fault_drops", static_cast<double>(fs.drops));
    rep.set("fault_truncations", static_cast<double>(fs.truncations));
    rep.set("fault_straggles", static_cast<double>(fs.straggles));
    rep.set("fault_retries", static_cast<double>(fs.retries));
    rep.set("fault_resends", static_cast<double>(fs.resends));
    rep.set("fault_resent_words", static_cast<double>(fs.resent_words));
    rep.set("fault_lost_words", static_cast<double>(fs.lost_words));
    rep.set("fault_lost_weight", static_cast<double>(fs.lost_weight));
    rep.set("fault_machines_lost", static_cast<double>(fs.machines_lost));
    rep.set("fault_messages_lost", static_cast<double>(fs.messages_lost));
    rep.set("fault_reassigned", static_cast<double>(fs.partitions_reassigned));
    rep.set("fault_recovery_rounds", static_cast<double>(fs.recovery_rounds));
    rep.set("fault_backoff_ms", fs.backoff_ms);
    rep.set("fault_straggle_ms", fs.straggle_ms);
    rep.set("degraded", fs.degraded ? 1.0 : 0.0);
  }
};

class TwoRoundPipeline final : public MpcPipeline {
 public:
  [[nodiscard]] std::string name() const override { return "mpc-2round"; }
  [[nodiscard]] std::string description() const override {
    return "deterministic 2-round MPC coreset (Algorithm 2, Theorem 10)";
  }

 protected:
  [[nodiscard]] std::string sizing_error(const PipelineConfig& cfg,
                                         const Workload&) const override {
    return memory_error(mpc::round1_broadcast_bytes(cfg.machines, cfg.z),
                        "the Round-1 broadcast");
  }

  [[nodiscard]] mpc::MpcStats run_mpc(const std::vector<WeightedSet>& parts,
                                      const Workload&,
                                      const PipelineConfig& cfg,
                                      PipelineResult& res,
                                      const mpc::ExecContext& ctx)
      const override {
    mpc::TwoRoundOptions opt;
    opt.eps = cfg.eps;
    auto out =
        mpc::two_round_coreset(parts, cfg.k, cfg.z, cfg.metric(), ctx, opt);
    res.coreset = std::move(out.coreset);
    res.report.set("merged_size", static_cast<double>(out.merged.size()));
    res.report.set("r_hat", out.r_hat);
    res.report.set("sum_guesses",
                   static_cast<double>(out.sum_outlier_guesses));
    res.report.set("eps_effective", out.eps_effective);
    return out.stats;
  }
};

class OneRoundPipeline final : public MpcPipeline {
 public:
  [[nodiscard]] std::string name() const override { return "mpc-1round"; }
  [[nodiscard]] std::string description() const override {
    return "randomized 1-round MPC coreset (Algorithm 6, Theorem 33)";
  }

 protected:
  [[nodiscard]] mpc::PartitionKind partition_kind(
      const PipelineConfig&) const override {
    return mpc::PartitionKind::Random;  // Lemma 32's distribution assumption
  }

  [[nodiscard]] mpc::MpcStats run_mpc(const std::vector<WeightedSet>& parts,
                                      const Workload& w,
                                      const PipelineConfig& cfg,
                                      PipelineResult& res,
                                      const mpc::ExecContext& ctx)
      const override {
    mpc::OneRoundOptions opt;
    opt.eps = cfg.eps;
    auto out = mpc::one_round_coreset(parts, cfg.k, cfg.z, w.n(), cfg.metric(),
                                      ctx, opt);
    res.coreset = std::move(out.coreset);
    res.report.set("merged_size", static_cast<double>(out.merged.size()));
    res.report.set("z_local", static_cast<double>(out.z_local));
    res.report.set("eps_effective", out.eps_effective);
    return out.stats;
  }
};

class MultiRoundPipeline final : public MpcPipeline {
 public:
  [[nodiscard]] std::string name() const override { return "mpc-rround"; }
  [[nodiscard]] std::string description() const override {
    return "deterministic R-round MPC trade-off (Algorithm 7, Theorem 35)";
  }
  [[nodiscard]] double quality_bound() const override {
    return 6.0;  // (1+eps)^R − 1 composed error needs extra headroom
  }

 protected:
  [[nodiscard]] mpc::MpcStats run_mpc(const std::vector<WeightedSet>& parts,
                                      const Workload&,
                                      const PipelineConfig& cfg,
                                      PipelineResult& res,
                                      const mpc::ExecContext& ctx)
      const override {
    mpc::MultiRoundOptions opt;
    opt.eps = cfg.eps;
    opt.rounds = cfg.rounds;
    auto out =
        mpc::multi_round_coreset(parts, cfg.k, cfg.z, cfg.metric(), ctx, opt);
    res.coreset = std::move(out.coreset);
    res.report.set("beta", static_cast<double>(out.beta));
    res.report.set("eps_effective", out.eps_effective);
    return out.stats;
  }
};

class CeccarelloPipeline final : public MpcPipeline {
 public:
  [[nodiscard]] std::string name() const override { return "mpc-ceccarello"; }
  [[nodiscard]] std::string description() const override {
    return "Ceccarello et al. 1-round baseline (multiplicative z budget)";
  }

 protected:
  [[nodiscard]] mpc::MpcStats run_mpc(const std::vector<WeightedSet>& parts,
                                      const Workload&,
                                      const PipelineConfig& cfg,
                                      PipelineResult& res,
                                      const mpc::ExecContext& ctx)
      const override {
    mpc::CeccarelloOptions opt;
    opt.eps = cfg.eps;
    auto out =
        mpc::ceccarello_coreset(parts, cfg.k, cfg.z, cfg.metric(), ctx, opt);
    res.coreset = std::move(out.coreset);
    res.report.set("merged_size", static_cast<double>(out.merged.size()));
    res.report.set("tau", static_cast<double>(out.tau));
    return out.stats;
  }
};

class GuhaPipeline final : public MpcPipeline {
 public:
  [[nodiscard]] std::string name() const override { return "mpc-guha"; }
  [[nodiscard]] std::string description() const override {
    return "Guha et al. local-z aggregation baseline (ablation)";
  }

 protected:
  [[nodiscard]] mpc::MpcStats run_mpc(const std::vector<WeightedSet>& parts,
                                      const Workload&,
                                      const PipelineConfig& cfg,
                                      PipelineResult& res,
                                      const mpc::ExecContext& ctx)
      const override {
    mpc::OneRoundOptions opt;
    opt.eps = cfg.eps;
    auto out =
        mpc::guha_local_z_coreset(parts, cfg.k, cfg.z, cfg.metric(), ctx, opt);
    res.coreset = std::move(out.coreset);
    res.report.set("merged_size", static_cast<double>(out.merged.size()));
    return out.stats;
  }
};

}  // namespace

void register_mpc_pipelines(Registry& reg) {
  reg.add("mpc-2round", [] { return std::make_unique<TwoRoundPipeline>(); });
  reg.add("mpc-1round", [] { return std::make_unique<OneRoundPipeline>(); });
  reg.add("mpc-rround", [] { return std::make_unique<MultiRoundPipeline>(); });
  reg.add("mpc-ceccarello",
          [] { return std::make_unique<CeccarelloPipeline>(); });
  reg.add("mpc-guha", [] { return std::make_unique<GuhaPipeline>(); });
}

}  // namespace kc::engine
