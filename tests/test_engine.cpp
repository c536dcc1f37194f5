// Tests of the engine layer: every pipeline registered in
// kc::engine::registry() must run by name on a small
// clustered-with-outliers instance and produce a validated result — a
// solution within its certified quality bound, and (for weight-preserving
// summaries) the coreset sandwich of Definition 1 via core/verify.hpp.
// Registering a broken pipeline, or adding a pipeline without registering
// it (the catalogue test pins the expected names), fails here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/cost.hpp"
#include "core/solver.hpp"
#include "core/verify.hpp"
#include "engine/registry.hpp"
#include "test_support.hpp"

namespace kc::engine {
namespace {

/// One small clustered-with-outliers configuration shared by every
/// pipeline (700 points, 3 clusters, 8 outliers, d=2).
PipelineConfig small_config() {
  PipelineConfig cfg;
  cfg.k = 3;
  cfg.z = 8;
  cfg.eps = 0.5;
  cfg.dim = 2;
  cfg.seed = 4242;
  cfg.machines = 6;
  cfg.partition_seed = 17;
  cfg.rounds = 2;
  cfg.delta = 1 << 10;
  return cfg;
}

constexpr std::size_t kSmallN = 700;

class EnginePipelineTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EnginePipelineTest, RunsByNameAndValidates) {
  const std::string name = GetParam();
  ASSERT_TRUE(registry().contains(name));
  const auto pipeline = registry().make(name);
  ASSERT_NE(pipeline, nullptr);
  EXPECT_EQ(pipeline->name(), name);
  EXPECT_FALSE(pipeline->description().empty());

  const PipelineConfig cfg = small_config();
  const Metric metric = cfg.metric();
  const Workload w = make_workload(kSmallN, cfg);
  const PipelineResult res = pipeline->execute(w, cfg);
  const auto& r = res.report;

  // Identification fields are stamped by execute().
  EXPECT_EQ(r.pipeline, name);
  EXPECT_EQ(r.model, pipeline->model());
  EXPECT_EQ(r.n, kSmallN);
  EXPECT_EQ(r.k, cfg.k);
  EXPECT_EQ(r.z, cfg.z);
  EXPECT_EQ(r.coreset_size, res.coreset.size());
  EXPECT_GT(r.words, 0u);

  // Every pipeline must extract a usable solution on this instance.
  ASSERT_FALSE(res.solution.centers.empty());
  EXPECT_LE(static_cast<int>(res.solution.centers.size()), cfg.k);
  EXPECT_GT(r.radius, 0.0);

  // Radius vs the direct solve on the pipeline's own ground-truth set
  // (with_direct_solve is on by default), within the certified bound.
  EXPECT_GT(r.radius_direct, 0.0);
  EXPECT_LE(r.quality, pipeline->quality_bound());

  // Radius vs the planted optimum bracket.  The dynamic pipeline evaluates
  // in grid coordinates, where the planted bracket does not apply.
  if (name != "dynamic") {
    EXPECT_LE(r.radius, pipeline->quality_bound() * w.planted.opt_hi + 1e-9);
  }

  if (res.coreset.empty() || !pipeline->preserves_weight()) return;

  // Definition-2 weight preservation: the summary accounts for every
  // (unit-weight) input point.
  EXPECT_EQ(total_weight(res.coreset), static_cast<std::int64_t>(kSmallN));

  // Coreset sandwich (Definition 1(2) via core/verify.hpp): a solution
  // feasible on the coreset, expanded by the covering slack, stays
  // feasible on the original set.
  if (name == "dynamic") {
    // Grid space: cell centers displace live points by ≤ (√d/2)·cell_side.
    const double cell_side = r.get("cell_side");
    ASSERT_GT(cell_side, 0.0);
    const double slack = std::sqrt(static_cast<double>(cfg.dim)) * cell_side;
    WeightedSet live;
    for (const auto& g : discretize(w.planted.points, cfg.delta))
      live.push_back({g.to_point(), 1});
    const Solution on_core =
        solve_kcenter_outliers(res.coreset, cfg.k, cfg.z, metric);
    EXPECT_TRUE(check_expansion_property(live, res.coreset, on_core.centers,
                                         on_core.radius, slack, cfg.z,
                                         metric));
  } else {
    // Composed coverings stay within a few ε of opt ≤ opt_hi (2ε+ε² for
    // the 2-round recompression, (1+ε)^R−1 for R rounds, ε elsewhere);
    // 4ε·opt_hi bounds them all at ε = 0.5, R = 2.
    const double slack = 4.0 * cfg.eps * w.planted.opt_hi;
    const Solution on_core =
        solve_kcenter_outliers(res.coreset, cfg.k, cfg.z, metric);
    EXPECT_TRUE(check_expansion_property(w.planted.points, res.coreset,
                                         on_core.centers, on_core.radius,
                                         slack, cfg.z, metric));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, EnginePipelineTest, ::testing::ValuesIn(registry().names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// Robustness sweep: every registered pipeline must survive every
// adversarial scenario (outlier burst, near-duplicate flood, heavy-tailed
// cluster masses, drifting centers) and stay within its certified quality bound
// against the scenario's still-certified planted bracket.
TEST_P(EnginePipelineTest, SurvivesAdversarialWorkloads) {
  const std::string name = GetParam();
  const auto pipeline = registry().make(name);
  const PipelineConfig cfg = small_config();
  for (const auto& scenario : testing::adversarial_scenarios()) {
    SCOPED_TRACE(scenario.name);
    Workload w;
    w.planted =
        scenario.make(kSmallN, cfg.k, cfg.z, cfg.dim, cfg.norm, cfg.seed);
    w.order = shuffled_order(w.n(), cfg.seed + 1);
    const PipelineResult res = pipeline->execute(w, cfg);
    const auto& r = res.report;

    ASSERT_FALSE(res.solution.centers.empty());
    EXPECT_LE(static_cast<int>(res.solution.centers.size()), cfg.k);
    EXPECT_GT(r.radius, 0.0);
    EXPECT_LE(r.quality, pipeline->quality_bound());
    if (name != "dynamic") {
      EXPECT_LE(r.radius, pipeline->quality_bound() * w.planted.opt_hi + 1e-9);
    }
    if (!res.coreset.empty() && pipeline->preserves_weight()) {
      EXPECT_EQ(total_weight(res.coreset),
                static_cast<std::int64_t>(kSmallN));
    }
  }
}

TEST(AdversarialGenerators, BracketsStayCertified) {
  // The scenario families keep the certified optimum bracket structure:
  // outliers stay declared, opt_lo ≤ opt_hi, and the heavy tail plants its
  // exact mass split.
  const auto& scenarios = testing::adversarial_scenarios();
  for (const auto& scenario : scenarios) {
    SCOPED_TRACE(scenario.name);
    const PlantedInstance inst =
        scenario.make(500, 4, 10, 2, Norm::L2, 7);
    EXPECT_EQ(inst.points.size(), 500u);
    EXPECT_EQ(inst.outlier_indices.size(), 10u);
    EXPECT_GT(inst.opt_lo, 0.0);
    EXPECT_LE(inst.opt_lo, inst.opt_hi * (1.0 + 1e-12));
  }
  // Burst: the z outliers form one clump of diameter ≤ 2R.
  ASSERT_STREQ(scenarios[0].name, "outlier-burst");
  const PlantedInstance burst = scenarios[0].make(500, 4, 10, 2, Norm::L2, 7);
  const Metric metric{Norm::L2};
  double diam = 0.0;
  for (std::size_t a : burst.outlier_indices)
    for (std::size_t b : burst.outlier_indices)
      diam = std::max(diam, metric.dist(burst.points[a].p, burst.points[b].p));
  EXPECT_LE(diam, 2.0 * burst.config.cluster_radius + 1e-12);
  // Heavy tail: first cluster dominates (more than a third of all mass).
  ASSERT_STREQ(scenarios[2].name, "heavy-tailed");
  const PlantedInstance heavy = scenarios[2].make(600, 4, 10, 2, Norm::L2, 7);
  EXPECT_GT(heavy.config.cluster_sizes[0], (600 - 10) / 3u);
}

TEST(EngineRegistry, CatalogueCoversEveryModel) {
  // The full Table-1 cast must be registered; adding a pipeline to the
  // engine without registering it (or renaming one silently) fails here.
  const auto names = registry().names();
  const std::set<std::string> expected{
      "offline",        "mpc-2round",  "mpc-1round",       "mpc-rround",
      "mpc-ceccarello", "mpc-guha",    "stream-insertion", "stream-mk",
      "stream-sliding", "dynamic"};
  for (const auto& name : expected)
    EXPECT_TRUE(registry().contains(name)) << name;
  EXPECT_GE(names.size(), expected.size());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));

  std::set<std::string> models;
  for (const auto& name : names) models.insert(registry().make(name)->model());
  EXPECT_EQ(models,
            (std::set<std::string>{"offline", "mpc", "stream", "dynamic"}));
}

TEST(EngineRegistry, UnknownNameIsAbsent) {
  EXPECT_FALSE(registry().contains("no-such-pipeline"));
}

TEST(EngineWorkload, MakeWorkloadIsDeterministic) {
  const PipelineConfig cfg = small_config();
  const Workload a = make_workload(300, cfg);
  const Workload b = make_workload(300, cfg);
  ASSERT_EQ(a.n(), 300u);
  ASSERT_EQ(a.order.size(), 300u);
  EXPECT_EQ(a.order, b.order);
  ASSERT_EQ(b.n(), a.n());
  for (std::size_t i = 0; i < a.n(); ++i) {
    EXPECT_EQ(a.planted.points[i].w, b.planted.points[i].w);
    EXPECT_EQ(a.planted.points[i].p.coords().size(),
              b.planted.points[i].p.coords().size());
    for (int d = 0; d < cfg.dim; ++d)
      EXPECT_DOUBLE_EQ(a.planted.points[i].p[d], b.planted.points[i].p[d]);
  }
}

TEST(EngineReport, ExtraKeyValueRoundTrip) {
  PipelineReport r;
  EXPECT_DOUBLE_EQ(r.get("missing", -3.0), -3.0);
  r.set("alpha", 1.5);
  r.set("beta", 2.0);
  r.set("alpha", 2.5);  // overwrite, no duplicate key
  EXPECT_DOUBLE_EQ(r.get("alpha"), 2.5);
  EXPECT_DOUBLE_EQ(r.get("beta"), 2.0);
  EXPECT_EQ(r.extra.size(), 2u);
  // json_fields carries the common fields plus both extras.
  const auto fields = r.json_fields();
  EXPECT_GE(fields.size(), 15u + 2u);
}

TEST(EngineConfig, ExtractionCanBeDisabled) {
  // Storage-shape-only consumers skip the extraction tail entirely.
  PipelineConfig cfg = small_config();
  cfg.with_extraction = false;
  const Workload w = make_workload(200, cfg);
  const PipelineResult res = run("mpc-2round", w, cfg);
  EXPECT_FALSE(res.coreset.empty());           // summary still built
  EXPECT_TRUE(res.solution.centers.empty());   // …but nothing extracted
  EXPECT_DOUBLE_EQ(res.report.radius, 0.0);
  EXPECT_GT(res.report.words, 0u);
}

TEST(EngineEvaluation, BufferGroundTruthMatchesTheAosOne) {
  // The buffer overload (the dynamic pipeline's live set) reports what the
  // AoS tail reports on the same unit-weight points, with and without the
  // direct solve.
  for (const bool direct : {false, true}) {
    PipelineConfig cfg = small_config();
    cfg.with_direct_solve = direct;
    const Workload w = make_workload(300, cfg);
    const PipelineResult base = run("offline", w, cfg);
    WeightedSet truth;
    for (std::size_t i = 0; i < w.planted.points.size(); i += 2)
      truth.push_back({w.planted.points[i].p, 1});
    const kernels::PointBuffer buf(truth);
    PipelineResult aos, soa;
    aos.coreset = soa.coreset = base.coreset;
    extract_and_evaluate(aos, truth, cfg, w);
    extract_and_evaluate(soa, buf, cfg, w);
    EXPECT_GT(soa.report.radius, 0.0);
    EXPECT_EQ(soa.report.radius, aos.report.radius);
    EXPECT_EQ(soa.report.radius_direct, aos.report.radius_direct);
    EXPECT_EQ(soa.report.quality, aos.report.quality);
    EXPECT_EQ(soa.solution.centers, aos.solution.centers);
    EXPECT_EQ(soa.report.get("direct_ms", -1.0) >= 0.0, direct);
  }
}

TEST(EngineWorkload, DirectSolveIsMemoizedAcrossRuns) {
  // Two pipelines on one workload share the direct solve on the planted
  // points (the CLI's --pipeline all path pays for it once).
  PipelineConfig cfg = small_config();
  const Workload w = make_workload(300, cfg);
  const PipelineResult a = run("offline", w, cfg);
  const PipelineResult b = run("mpc-2round", w, cfg);
  EXPECT_GT(a.report.radius_direct, 0.0);
  EXPECT_DOUBLE_EQ(a.report.radius_direct, b.report.radius_direct);
  ASSERT_NE(w.direct_cache, nullptr);
  EXPECT_EQ(w.direct_cache->entries.size(), 1u);
  // The second run hit the cache: it never timed a direct solve.
  EXPECT_DOUBLE_EQ(b.report.get("direct_ms", -1.0), -1.0);
}

TEST(EngineConfig, SameWorkloadDrivesDifferentMetrics) {
  // The same instance runs under every built-in norm through the offline
  // pipeline (the CLI's --norm path).
  for (const Norm norm : {Norm::L2, Norm::L1, Norm::Linf}) {
    PipelineConfig cfg = small_config();
    cfg.norm = norm;
    const Workload w = make_workload(200, cfg);
    const PipelineResult res = run("offline", w, cfg);
    EXPECT_GT(res.report.radius, 0.0) << cfg.metric().name();
    EXPECT_FALSE(res.coreset.empty()) << cfg.metric().name();
  }
}

// The parameter contract.  For every registered pipeline and every field
// config_error checks, a value just inside the range is accepted and one
// just outside is rejected, by config_error and by execute, which throws
// ConfigError before anything runs.
struct ContractCase {
  std::string what;
  std::function<void(PipelineConfig&)> set;
  bool valid;
};

std::vector<ContractCase> contract_cases() {
  const double above_one = std::nextafter(1.0, 2.0);
  const double below_zero = -std::numeric_limits<double>::denorm_min();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<ContractCase> cases{
      {"k=1", [](PipelineConfig& c) { c.k = 1; }, true},
      {"k=0", [](PipelineConfig& c) { c.k = 0; }, false},
      {"z=0", [](PipelineConfig& c) { c.z = 0; }, true},
      {"z=-1", [](PipelineConfig& c) { c.z = -1; }, false},
      {"eps=1", [](PipelineConfig& c) { c.eps = 1.0; }, true},
      {"eps>1", [=](PipelineConfig& c) { c.eps = above_one; }, false},
      {"eps=0", [](PipelineConfig& c) { c.eps = 0.0; }, false},
      {"eps=nan", [=](PipelineConfig& c) { c.eps = nan; }, false},
      {"dim=0", [](PipelineConfig& c) { c.dim = 0; }, false},
      {"dim>max", [](PipelineConfig& c) { c.dim = Point::kMaxDim + 1; },
       false},
      {"dim!=workload", [](PipelineConfig& c) { c.dim = 3; }, false},
      {"threads=0", [](PipelineConfig& c) { c.num_threads = 0; }, true},
      {"threads=max",
       [](PipelineConfig& c) { c.num_threads = PipelineConfig::kMaxThreads; },
       true},
      {"threads=-1", [](PipelineConfig& c) { c.num_threads = -1; }, false},
      {"threads>max",
       [](PipelineConfig& c) {
         c.num_threads = PipelineConfig::kMaxThreads + 1;
       },
       false},
      {"machines=1", [](PipelineConfig& c) { c.machines = 1; }, true},
      {"machines=0", [](PipelineConfig& c) { c.machines = 0; }, false},
      {"rounds=1", [](PipelineConfig& c) { c.rounds = 1; }, true},
      {"rounds=max",
       [](PipelineConfig& c) { c.rounds = PipelineConfig::kMaxRounds; }, true},
      {"rounds=0", [](PipelineConfig& c) { c.rounds = 0; }, false},
      {"rounds>max",
       [](PipelineConfig& c) { c.rounds = PipelineConfig::kMaxRounds + 1; },
       false},
      {"window=0", [](PipelineConfig& c) { c.window = 0; }, true},
      {"window=-1", [](PipelineConfig& c) { c.window = -1; }, false},
      {"delta=2", [](PipelineConfig& c) { c.delta = 2; }, true},
      {"delta=1", [](PipelineConfig& c) { c.delta = 1; }, false},
      {"retries=0", [](PipelineConfig& c) { c.fault.retry_budget = 0; }, true},
      {"retries=max",
       [](PipelineConfig& c) {
         c.fault.retry_budget = PipelineConfig::kMaxFaultRetries;
       },
       true},
      {"retries=-1", [](PipelineConfig& c) { c.fault.retry_budget = -1; },
       false},
      {"retries>max",
       [](PipelineConfig& c) {
         c.fault.retry_budget = PipelineConfig::kMaxFaultRetries + 1;
       },
       false},
  };
  const std::pair<const char*, double mpc::FaultConfig::*> probs[] = {
      {"fault_crash", &mpc::FaultConfig::crash_prob},
      {"fault_drop", &mpc::FaultConfig::drop_prob},
      {"fault_truncate", &mpc::FaultConfig::truncate_prob},
      {"fault_straggle", &mpc::FaultConfig::straggle_prob}};
  for (const auto& [field, member] : probs) {
    for (const double p : {0.0, 1.0, below_zero, above_one, nan}) {
      cases.push_back({std::string(field) + "=" + std::to_string(p),
                       [m = member, p](PipelineConfig& c) { c.fault.*m = p; },
                       p >= 0.0 && p <= 1.0});
    }
  }
  return cases;
}

// Checks one (pipeline, config, workload) against the expected verdict.
void expect_verdict(const Pipeline& pipeline, const PipelineConfig& cfg,
                    const Workload& w, bool valid) {
  const std::string err = config_error(pipeline, cfg, w);
  if (valid) {
    EXPECT_EQ(err, "");
  } else {
    EXPECT_NE(err, "");
    EXPECT_THROW((void)pipeline.execute(w, cfg), ConfigError);
  }
}

TEST_P(EnginePipelineTest, ConfigContractAtEveryFieldEdge) {
  const auto pipeline = registry().make(GetParam());
  const Workload w = make_workload(kSmallN, small_config());
  for (const ContractCase& c : contract_cases()) {
    SCOPED_TRACE(c.what);
    PipelineConfig cfg = small_config();
    c.set(cfg);
    expect_verdict(*pipeline, cfg, w, c.valid);
  }
  // dim's edges, on workloads of that dimension.  The dynamic sketch packs
  // d·⌈log2 Δ⌉ ≤ 62 cell-id bits, so d = 8 at Δ = 1024 is past its own
  // sizing limit while inside the shared range.
  for (const int dim : {1, Point::kMaxDim}) {
    SCOPED_TRACE(dim);
    PipelineConfig cfg = small_config();
    cfg.dim = dim;
    expect_verdict(*pipeline, cfg, make_workload(kSmallN, cfg),
                   GetParam() != "dynamic" || dim == 1);
  }
}

TEST(EngineConfig, SizingLimitsOfEachPipeline) {
  PipelineConfig cfg = small_config();
  const Workload w = make_workload(kSmallN, cfg);
  // stream-mk runs ⌈ln 2 / ln(1+ε)⌉ ≤ 65536 instances: ε = 1.1e-5 gives
  // 63013 of them, ε = 1e-5 gives 69315.
  const auto mk = registry().make("stream-mk");
  cfg.eps = 1.1e-5;
  expect_verdict(*mk, cfg, w, true);
  cfg.eps = 1e-5;
  expect_verdict(*mk, cfg, w, false);
  // mpc-2round's Round 1 holds m(m−1) table messages at once: about 1e10
  // at m = 1e5, past any memory budget.
  cfg = small_config();
  const auto two_round = registry().make("mpc-2round");
  cfg.machines = 1000;
  expect_verdict(*two_round, cfg, w, true);
  cfg.machines = 100000;
  expect_verdict(*two_round, cfg, w, false);
  EXPECT_NE(config_error(*two_round, cfg, w).find("memory budget"),
            std::string::npos);
  expect_verdict(*registry().make("mpc-1round"), cfg, w, true);
}

TEST(EngineConfig, DynamicSketchPastTheMemoryBudgetIsRejectedUpFront) {
  // At ε = 1e-3 and d = 3 the sample budget k(4√d/ε)^d + z is ~1e12 cells,
  // a representable sketch of ~190 TB per grid level: the check rejects it
  // from the options alone, and execute throws before the constructor
  // allocates anything.
  PipelineConfig cfg = small_config();
  cfg.dim = 3;
  const Workload w = make_workload(kSmallN, cfg);
  cfg.eps = 1e-3;
  const auto dynamic = registry().make("dynamic");
  const std::string err = config_error(*dynamic, cfg, w);
  EXPECT_NE(err.find("memory budget"), std::string::npos) << err;
  EXPECT_THROW((void)dynamic->execute(w, cfg), ConfigError);
  // A budget past any representable sketch and a cell id past 62 bits.
  cfg.eps = 1e-7;
  EXPECT_NE(config_error(*dynamic, cfg, w).find("representable"),
            std::string::npos);
  cfg.eps = 0.5;
  cfg.delta = 1 << 21;
  EXPECT_NE(config_error(*dynamic, cfg, w).find("62"), std::string::npos);
}

TEST(EngineWorkload, MakeWorkloadRejectsWhatItCannotPlant) {
  PipelineConfig cfg = small_config();  // k = 3, z = 8: n >= 3·9 + 8 = 35
  EXPECT_EQ(make_workload(35, cfg).n(), 35u);
  EXPECT_THROW((void)make_workload(34, cfg), ConfigError);
  // More points than memory can hold: rejected before any allocation.
  EXPECT_THROW((void)make_workload(std::size_t{1} << 60, cfg), ConfigError);
  cfg.k = 0;
  EXPECT_THROW((void)make_workload(kSmallN, cfg), ConfigError);
  cfg = small_config();
  cfg.dim = Point::kMaxDim + 1;
  EXPECT_THROW((void)make_workload(kSmallN, cfg), ConfigError);
}

}  // namespace
}  // namespace kc::engine
