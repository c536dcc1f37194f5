// Tests of the deterministic fault-injection and recovery layer
// (mpc/faults.hpp, the fault-aware Simulator, and the
// recovery threading through the engine's MPC pipelines).
//
// The acceptance sweep encodes the PR's contract: under a seeded fault
// plan with crash probability up to 0.2 per machine-round, every MPC
// pipeline × every recovery policy returns a Definition-1-valid solution
// that either meets the registered quality bound or carries an explicit
// degraded (k, z + lost_weight) certificate — bit-identical across thread
// counts for a fixed fault seed, and byte-identical to the pre-fault
// reports when injection is off.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "core/cost.hpp"
#include "engine/registry.hpp"
#include "mpc/faults.hpp"
#include "mpc/partition.hpp"
#include "mpc/simulator.hpp"
#include "test_support.hpp"

namespace kc::mpc {
namespace {

FaultConfig chaos_config() {
  FaultConfig fc;
  fc.seed = 99;
  fc.crash_prob = 0.2;
  fc.drop_prob = 0.1;
  fc.truncate_prob = 0.05;
  fc.straggle_prob = 0.1;
  return fc;
}

TEST(Backoff, CappedExponentialSchedule) {
  // 1 ms · 2^(a−1) for attempt a, capped at 64 ms.
  double expected = 1.0;
  for (int attempt = 1; attempt <= 7; ++attempt, expected *= 2.0)
    EXPECT_DOUBLE_EQ(backoff_ms(attempt), expected) << attempt;
  EXPECT_DOUBLE_EQ(backoff_ms(8), 64.0);     // capped
  EXPECT_DOUBLE_EQ(backoff_ms(1001), 64.0);  // the largest --fault-retries + 1
}

TEST(FaultPlan, IsAPureFunctionOfItsCoordinates) {
  const FaultPlan a(chaos_config());
  const FaultPlan b(chaos_config());
  int crashes = 0, drops = 0;
  for (int round = 0; round < 6; ++round)
    for (int machine = 0; machine < 8; ++machine)
      for (int attempt = 0; attempt < 3; ++attempt) {
        EXPECT_EQ(a.crash(round, machine, attempt),
                  b.crash(round, machine, attempt));
        EXPECT_EQ(a.drop(round, machine, (machine + 1) % 8, attempt),
                  b.drop(round, machine, (machine + 1) % 8, attempt));
        crashes += a.crash(round, machine, attempt) ? 1 : 0;
        drops += a.drop(round, machine, (machine + 1) % 8, attempt) ? 1 : 0;
      }
  // The schedule actually injects at these probabilities.
  EXPECT_GT(crashes, 0);
  EXPECT_GT(drops, 0);

  FaultConfig other = chaos_config();
  other.seed = 100;
  const FaultPlan c(other);
  int diff = 0;
  for (int round = 0; round < 6; ++round)
    for (int machine = 1; machine < 8; ++machine)
      if (a.crash(round, machine, 0) != c.crash(round, machine, 0)) ++diff;
  EXPECT_GT(diff, 0);  // a different seed is a different schedule
}

TEST(FaultPlan, CoordinatorAndSelfSendsAreExempt) {
  FaultConfig fc = chaos_config();
  fc.crash_prob = 1.0;
  fc.drop_prob = 1.0;
  fc.truncate_prob = 1.0;
  const FaultPlan plan(fc);
  for (int round = 0; round < 8; ++round) {
    EXPECT_FALSE(plan.crash(round, 0, 0));  // machine 0 never crashes
    EXPECT_FALSE(plan.drop(round, 3, 3, 0));  // self-sends never fault
    EXPECT_FALSE(plan.truncate(round, 3, 3, 0));
    EXPECT_TRUE(plan.crash(round, 1, 0));
    const double keep = plan.truncate_keep_fraction(round, 1, 0);
    EXPECT_GE(keep, 0.25);
    EXPECT_LT(keep, 1.0);
  }
}

TEST(PointPayload, PacksOnceAndTruncatesAsPrefix) {
  WeightedSet pts;
  for (int i = 0; i < 5; ++i)
    pts.push_back({Point{static_cast<double>(i), -static_cast<double>(i)},
                   static_cast<std::int64_t>(i + 1)});
  PointPayload payload(pts);
  EXPECT_EQ(payload.size(), 5u);
  EXPECT_EQ(payload.full_size(), 5u);
  EXPECT_FALSE(payload.truncated());

  // Exact round trip (doubles are stored bit-exactly).
  const WeightedSet back = payload.unpack();
  ASSERT_EQ(back.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(back[i].w, pts[i].w);
    for (int d = 0; d < 2; ++d) EXPECT_EQ(back[i].p[d], pts[i].p[d]);
  }

  // Message::words accounts delivered rows only.
  Message msg;
  msg.scalars = {1.0};
  msg.payload = PointPayload(pts);
  EXPECT_EQ(msg.words(2), 1u + 5u * 3u);
  msg.payload.truncate_to(2);
  EXPECT_TRUE(msg.payload.truncated());
  EXPECT_EQ(msg.payload.size(), 2u);
  EXPECT_EQ(msg.payload.cut_weight(), 3 + 4 + 5);
  EXPECT_EQ(msg.words(2), 1u + 2u * 3u);
  const WeightedSet prefix = msg.payload.unpack();
  ASSERT_EQ(prefix.size(), 2u);
  EXPECT_EQ(prefix[1].w, 2);
}

TEST(Simulator, CertainCrashKillsWorkersAfterTheBudget) {
  FaultConfig fc;
  fc.crash_prob = 1.0;
  fc.retry_budget = 2;
  FaultInjector faults(fc);
  Simulator sim(4, 2, {nullptr, nullptr, &faults, nullptr});
  int ran = 0;
  sim.round([&](int id, std::vector<Message>&, std::vector<Message>&) {
    ++ran;
    EXPECT_EQ(id, 0);  // only the coordinator survives
  });
  EXPECT_EQ(ran, 1);
  const FaultStats& fs = sim.stats().faults;
  EXPECT_EQ(fs.machines_lost, 3);
  EXPECT_EQ(fs.crashes, 3 * 3);  // budget+1 attempts per worker
  EXPECT_EQ(fs.retries, 3 * 2);
  EXPECT_GT(fs.backoff_ms, 0.0);
  for (int id = 1; id < 4; ++id) EXPECT_FALSE(sim.alive(id));
  // Dead machines stay dead in later rounds.
  ran = 0;
  sim.round([&](int, std::vector<Message>&, std::vector<Message>&) { ++ran; });
  EXPECT_EQ(ran, 1);
}

TEST(Simulator, CertainDropLosesTheMessageButTerminates) {
  FaultConfig fc;
  fc.drop_prob = 1.0;
  fc.retry_budget = 2;
  FaultInjector faults(fc);
  Simulator sim(2, 2, {nullptr, nullptr, &faults, nullptr});
  sim.round([&](int id, std::vector<Message>&, std::vector<Message>& out) {
    if (id == 1) {
      Message m;
      m.to = 0;
      m.scalars = {1.0, 2.0, 3.0};
      out.push_back(std::move(m));
    }
  });
  EXPECT_TRUE(sim.inbox(0).empty());
  const FaultStats& fs = sim.stats().faults;
  EXPECT_EQ(fs.messages_lost, 1);
  EXPECT_EQ(fs.drops, 3);    // budget+1 attempts, all dropped
  EXPECT_EQ(fs.resends, 2);  // every attempt past the first
  EXPECT_EQ(fs.lost_words, 3u);
  // Every attempt burned wire bandwidth.
  EXPECT_EQ(sim.stats().total_comm_words, 9u);
}

TEST(Simulator, InactiveInjectorIsNoInjector) {
  FaultConfig fc;  // all probabilities zero
  FaultInjector faults(fc);
  Simulator sim(3, 2, {nullptr, nullptr, &faults, nullptr});
  EXPECT_EQ(sim.faults(), nullptr);  // nullified: pre-fault code paths
  sim.round([&](int id, std::vector<Message>&, std::vector<Message>& out) {
    if (id != 0) {
      Message m;
      m.to = 0;
      m.scalars = {1.0};
      out.push_back(std::move(m));
    }
  });
  EXPECT_EQ(sim.inbox(0).size(), 2u);
  const FaultStats& fs = sim.stats().faults;
  EXPECT_EQ(fs.crashes, 0);
  EXPECT_EQ(fs.drops, 0);
  EXPECT_EQ(fs.truncations, 0);
  EXPECT_EQ(fs.straggles, 0);
}

// ---------------------------------------------------------------------------
// Engine-level acceptance sweep.
// ---------------------------------------------------------------------------

engine::PipelineConfig chaos_pipeline_config(RecoveryPolicy policy) {
  engine::PipelineConfig cfg;
  cfg.k = 3;
  cfg.z = 8;
  cfg.eps = 0.5;
  cfg.dim = 2;
  cfg.seed = 4242;
  cfg.machines = 6;
  cfg.partition_seed = 17;
  cfg.rounds = 2;
  cfg.fault_seed = 99;
  cfg.fault_crash = 0.2;
  cfg.fault_drop = 0.1;
  cfg.fault_truncate = 0.05;
  cfg.fault_straggle = 0.1;
  cfg.fault_policy = policy;
  return cfg;
}

std::vector<std::string> mpc_pipeline_names() {
  std::vector<std::string> out;
  for (const auto& name : engine::registry().names())
    if (engine::registry().make(name)->model() == "mpc") out.push_back(name);
  return out;
}

struct SweepCase {
  std::string pipeline;
  RecoveryPolicy policy;
};

// gtest prints a parameter it cannot format as its raw bytes, which here
// include the string's heap address: the test names would change from run
// to run.  Print the fields instead.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << c.pipeline << '/' << kc::testing::policy_name(c.policy);
}

class FaultSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(FaultSweepTest, ValidOrExplicitlyDegraded) {
  const auto& param = GetParam();
  const auto pipeline = engine::registry().make(param.pipeline);
  const engine::PipelineConfig cfg = chaos_pipeline_config(param.policy);
  const Metric metric = cfg.metric();
  const engine::Workload w = engine::make_workload(700, cfg);

  const engine::PipelineResult res = pipeline->execute(w, cfg);
  const auto& r = res.report;

  // Faults were actually injected on this schedule…
  EXPECT_GT(r.get("fault_crashes") + r.get("fault_drops") +
                r.get("fault_truncations") + r.get("fault_straggles"),
            0.0);

  // …and the run still produced a Definition-1-valid (k, z') solution.
  ASSERT_FALSE(res.solution.centers.empty());
  EXPECT_LE(static_cast<int>(res.solution.centers.size()), cfg.k);
  const auto lost = static_cast<std::int64_t>(r.get("fault_lost_weight"));
  EXPECT_GE(lost, 0);
  EXPECT_LE(lost, static_cast<std::int64_t>(w.n()));

  // Honest weight accounting: the summary carries exactly the weight that
  // was not written off.
  EXPECT_EQ(total_weight(res.coreset),
            static_cast<std::int64_t>(w.n()) - lost);

  const double bound = pipeline->quality_bound() * w.planted.opt_hi + 1e-9;
  if (r.get("degraded") > 0.0) {
    // Degraded = explicit (k, z + lost_weight) certificate (Lemma 4): the
    // extracted centers cover all but z + lost_weight of the input within
    // the bound.
    EXPECT_LE(radius_with_outliers(w.planted.points, res.solution.centers,
                                   cfg.z + lost, metric, w.buffer()),
              bound);
  } else {
    // Not degraded = the registered bound still holds outright.
    EXPECT_LE(r.radius, bound);
    EXPECT_EQ(lost, 0);
  }

  // Determinism: the same fault seed gives a bit-identical report at any
  // thread count — including every fault-accounting extra.
  engine::PipelineConfig cfg8 = cfg;
  cfg8.num_threads = 8;
  const engine::PipelineResult res8 = pipeline->execute(w, cfg8);
  EXPECT_EQ(res8.report.coreset_size, r.coreset_size);
  EXPECT_EQ(res8.report.rounds, r.rounds);
  EXPECT_EQ(res8.report.words, r.words);
  EXPECT_EQ(res8.report.comm_words, r.comm_words);
  EXPECT_EQ(res8.report.radius, r.radius);
  for (const auto& [key, value] : r.extra) {
    if (key == "map_ms" || key == "eval_ms" || key == "direct_ms" ||
        key == "threads")
      continue;  // wall-time and pool-shape fields may differ
    EXPECT_EQ(res8.report.get(key), value) << key;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Chaos, FaultSweepTest, ::testing::ValuesIn([] {
      std::vector<SweepCase> cases;
      for (const auto& name : mpc_pipeline_names())
        for (const RecoveryPolicy policy :
             {RecoveryPolicy::Retry, RecoveryPolicy::Reassign,
              RecoveryPolicy::Degrade})
          cases.push_back({name, policy});
      return cases;
    }()),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      std::string name = info.param.pipeline + "_" +
                         kc::testing::policy_name(info.param.policy);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ---------------------------------------------------------------------------
// Fault-path golden: every MPC pipeline × recovery policy × schedule pinned
// to its exact report.  The sweep above checks validity and thread-count
// determinism only, and the wire-vs-local differential changes both sides
// together; this table pins the recovery paths themselves (reassigned
// rebuilds, truncation write-offs, whole-machine losses).  A change that
// moves any number here changes what a fault costs, and must say so.
// ---------------------------------------------------------------------------

// The harsh schedule: most machines crash for good on their first fault
// (no transport retries), on the wire backend.
engine::PipelineConfig harsh_pipeline_config(RecoveryPolicy policy) {
  engine::PipelineConfig cfg = chaos_pipeline_config(policy);
  cfg.fault_seed = 11;
  cfg.fault_crash = 0.6;
  cfg.fault_drop = cfg.fault_truncate = cfg.fault_straggle = 0.0;
  cfg.fault_retries = 0;
  cfg.backend = Backend::Wire;
  return cfg;
}

// One line per run: the common result columns, the radius as a hex float
// (its exact bits), and every extra except wall times and the pool size.
std::string golden_line(const std::string& label,
                        const engine::PipelineReport& r) {
  char buf[64];
  std::string line = label;
  const auto add = [&](const std::string& key, const char* fmt, auto value) {
    std::snprintf(buf, sizeof buf, fmt, value);
    line += ' ' + key + '=' + buf;
  };
  add("coreset", "%zu", r.coreset_size);
  add("words", "%zu", r.words);
  add("comm", "%zu", r.comm_words);
  add("rounds", "%d", r.rounds);
  add("radius", "%a", r.radius);
  for (const auto& [key, value] : r.extra) {
    const bool simulated = key.rfind("fault_", 0) == 0;
    const bool timing = key.size() > 3 && key.ends_with("_ms");
    if (key == "threads" || (timing && !simulated)) continue;
    add(key, "%.17g", value);
  }
  return line;
}

// Rows are in the loop order of the test below.
const char* const kFaultGolden[] = {
    "mpc-1round/retry/chaos coreset=111 words=555 comm=1206 rounds=1"
    " radius=0x1.5a1a702a600f9p+0 merged_size=319 z_local=8"
    " eps_effective=1.25 coord_words=1677 fault_crashes=3 fault_drops=1"
    " fault_truncations=2 fault_straggles=2 fault_retries=2"
    " fault_resends=2 fault_resent_words=396 fault_lost_words=84"
    " fault_lost_weight=169 fault_machines_lost=1 fault_messages_lost=0"
    " fault_reassigned=0 fault_recovery_rounds=0 fault_backoff_ms=6"
    " fault_straggle_ms=10 degraded=1",
    "mpc-1round/retry/harsh coreset=134 words=555 comm=420 rounds=1"
    " radius=0x1.5c2aa4c372d93p+0 merged_size=217 z_local=8"
    " eps_effective=1.25 coord_words=1440 wire_bytes=3456 wire_frames=2"
    " wire_ratio=1.0285714285714285 fault_crashes=3 fault_drops=0"
    " fault_truncations=0 fault_straggles=0 fault_retries=0"
    " fault_resends=0 fault_resent_words=0 fault_lost_words=0"
    " fault_lost_weight=351 fault_machines_lost=3 fault_messages_lost=0"
    " fault_reassigned=0 fault_recovery_rounds=0 fault_backoff_ms=0"
    " fault_straggle_ms=0 degraded=1",
    "mpc-1round/reassign/chaos coreset=113 words=966 comm=1911 rounds=2"
    " radius=0x1.5a1a702a600f9p+0 merged_size=397 z_local=8"
    " eps_effective=1.25 coord_words=1917 fault_crashes=3 fault_drops=2"
    " fault_truncations=3 fault_straggles=2 fault_retries=2"
    " fault_resends=4 fault_resent_words=866 fault_lost_words=84"
    " fault_lost_weight=34 fault_machines_lost=1 fault_messages_lost=0"
    " fault_reassigned=1 fault_recovery_rounds=1 fault_backoff_ms=9"
    " fault_straggle_ms=10 degraded=1",
    "mpc-1round/reassign/harsh coreset=119 words=555 comm=420 rounds=3"
    " radius=0x1.5a1a702a600f9p+0 merged_size=425 z_local=8"
    " eps_effective=1.25 coord_words=2019 wire_bytes=3456 wire_frames=2"
    " wire_ratio=1.0285714285714285 fault_crashes=5 fault_drops=0"
    " fault_truncations=0 fault_straggles=0 fault_retries=0"
    " fault_resends=0 fault_resent_words=0 fault_lost_words=0"
    " fault_lost_weight=0 fault_machines_lost=5 fault_messages_lost=0"
    " fault_reassigned=3 fault_recovery_rounds=2 fault_backoff_ms=0"
    " fault_straggle_ms=0 degraded=0",
    "mpc-1round/degrade/chaos coreset=133 words=555 comm=810 rounds=1"
    " radius=0x1.5a1a702a600f9p+0 merged_size=281 z_local=8"
    " eps_effective=1.25 coord_words=1629 fault_crashes=1 fault_drops=1"
    " fault_truncations=0 fault_straggles=2 fault_retries=0"
    " fault_resends=0 fault_resent_words=0 fault_lost_words=198"
    " fault_lost_weight=244 fault_machines_lost=1 fault_messages_lost=1"
    " fault_reassigned=0 fault_recovery_rounds=0 fault_backoff_ms=0"
    " fault_straggle_ms=10 degraded=1",
    "mpc-1round/degrade/harsh coreset=134 words=555 comm=420 rounds=1"
    " radius=0x1.5c2aa4c372d93p+0 merged_size=217 z_local=8"
    " eps_effective=1.25 coord_words=1440 wire_bytes=3456 wire_frames=2"
    " wire_ratio=1.0285714285714285 fault_crashes=3 fault_drops=0"
    " fault_truncations=0 fault_straggles=0 fault_retries=0"
    " fault_resends=0 fault_resent_words=0 fault_lost_words=0"
    " fault_lost_weight=351 fault_machines_lost=3 fault_messages_lost=0"
    " fault_reassigned=0 fault_recovery_rounds=0 fault_backoff_ms=0"
    " fault_straggle_ms=0 degraded=1",
    "mpc-2round/retry/chaos coreset=89 words=561 comm=1098 rounds=2"
    " radius=0x1.97f14370364d8p+0 merged_size=236"
    " r_hat=1.1320547515323807 sum_guesses=16 eps_effective=1.25"
    " coord_words=1326 fault_crashes=3 fault_drops=3 fault_truncations=1"
    " fault_straggles=2 fault_retries=2 fault_resends=4"
    " fault_resent_words=320 fault_lost_words=0 fault_lost_weight=116"
    " fault_machines_lost=1 fault_messages_lost=0 fault_reassigned=0"
    " fault_recovery_rounds=0 fault_backoff_ms=8 fault_straggle_ms=10"
    " degraded=1",
    "mpc-2round/retry/harsh coreset=43 words=351 comm=150 rounds=2"
    " radius=0x1.4de3f1cb64cfbp+5 merged_size=60"
    " r_hat=0.90353492734867003 sum_guesses=15 eps_effective=1.25"
    " coord_words=660 wire_bytes=1920 wire_frames=15"
    " wire_ratio=1.6000000000000001 fault_crashes=5 fault_drops=0"
    " fault_truncations=0 fault_straggles=0 fault_retries=0"
    " fault_resends=0 fault_resent_words=0 fault_lost_words=0"
    " fault_lost_weight=583 fault_machines_lost=5 fault_messages_lost=0"
    " fault_reassigned=0 fault_recovery_rounds=0 fault_backoff_ms=0"
    " fault_straggle_ms=0 degraded=1",
    "mpc-2round/reassign/chaos coreset=107 words=921 comm=1321 rounds=3"
    " radius=0x1.97f14370364d8p+0 merged_size=310"
    " r_hat=1.1320547515323807 sum_guesses=16 eps_effective=1.25"
    " coord_words=1602 fault_crashes=3 fault_drops=3 fault_truncations=1"
    " fault_straggles=2 fault_retries=2 fault_resends=4"
    " fault_resent_words=320 fault_lost_words=0 fault_lost_weight=0"
    " fault_machines_lost=1 fault_messages_lost=0 fault_reassigned=1"
    " fault_recovery_rounds=1 fault_backoff_ms=8 fault_straggle_ms=10"
    " degraded=1",
    "mpc-2round/reassign/harsh coreset=109 words=351 comm=150 rounds=3"
    " radius=0x1.93939e3db9c26p+0 merged_size=348"
    " r_hat=0.90353492734867003 sum_guesses=15 eps_effective=1.25"
    " coord_words=1722 wire_bytes=1920 wire_frames=15"
    " wire_ratio=1.6000000000000001 fault_crashes=5 fault_drops=0"
    " fault_truncations=0 fault_straggles=0 fault_retries=0"
    " fault_resends=0 fault_resent_words=0 fault_lost_words=0"
    " fault_lost_weight=0 fault_machines_lost=5 fault_messages_lost=0"
    " fault_reassigned=5 fault_recovery_rounds=1 fault_backoff_ms=0"
    " fault_straggle_ms=0 degraded=1",
    "mpc-2round/degrade/chaos coreset=90 words=600 comm=856 rounds=2"
    " radius=0x1.97f14370364d8p+0 merged_size=261"
    " r_hat=1.1320547515323807 sum_guesses=23 eps_effective=1.25"
    " coord_words=1404 fault_crashes=1 fault_drops=2 fault_truncations=1"
    " fault_straggles=2 fault_retries=0 fault_resends=0"
    " fault_resent_words=0 fault_lost_words=23 fault_lost_weight=117"
    " fault_machines_lost=1 fault_messages_lost=2 fault_reassigned=0"
    " fault_recovery_rounds=0 fault_backoff_ms=0 fault_straggle_ms=10"
    " degraded=1",
    "mpc-2round/degrade/harsh coreset=43 words=351 comm=150 rounds=2"
    " radius=0x1.4de3f1cb64cfbp+5 merged_size=60"
    " r_hat=0.90353492734867003 sum_guesses=15 eps_effective=1.25"
    " coord_words=660 wire_bytes=1920 wire_frames=15"
    " wire_ratio=1.6000000000000001 fault_crashes=5 fault_drops=0"
    " fault_truncations=0 fault_straggles=0 fault_retries=0"
    " fault_resends=0 fault_resent_words=0 fault_lost_words=0"
    " fault_lost_weight=583 fault_machines_lost=5 fault_messages_lost=0"
    " fault_reassigned=0 fault_recovery_rounds=0 fault_backoff_ms=0"
    " fault_straggle_ms=0 degraded=1",
    "mpc-ceccarello/retry/chaos coreset=88 words=702 comm=2097 rounds=1"
    " radius=0x1.7992c3c232b08p+0 merged_size=535 tau=705"
    " coord_words=2220 fault_crashes=3 fault_drops=1 fault_truncations=2"
    " fault_straggles=2 fault_retries=2 fault_resends=2"
    " fault_resent_words=696 fault_lost_words=147 fault_lost_weight=165"
    " fault_machines_lost=1 fault_messages_lost=0 fault_reassigned=0"
    " fault_recovery_rounds=0 fault_backoff_ms=6 fault_straggle_ms=10"
    " degraded=1",
    "mpc-ceccarello/retry/harsh coreset=67 words=702 comm=699 rounds=1"
    " radius=0x1.830175830f577p+0 merged_size=350 tau=705"
    " coord_words=1602 wire_bytes=5688 wire_frames=2"
    " wire_ratio=1.0171673819742488 fault_crashes=3 fault_drops=0"
    " fault_truncations=0 fault_straggles=0 fault_retries=0"
    " fault_resends=0 fault_resent_words=0 fault_lost_words=0"
    " fault_lost_weight=350 fault_machines_lost=3 fault_messages_lost=0"
    " fault_reassigned=0 fault_recovery_rounds=0 fault_backoff_ms=0"
    " fault_straggle_ms=0 degraded=1",
    "mpc-ceccarello/reassign/chaos coreset=189 words=1047 comm=3144"
    " rounds=2 radius=0x1.76777d1379acbp+0 merged_size=651 tau=705"
    " coord_words=2871 fault_crashes=3 fault_drops=2 fault_truncations=3"
    " fault_straggles=2 fault_retries=2 fault_resends=4"
    " fault_resent_words=1394 fault_lost_words=147 fault_lost_weight=49"
    " fault_machines_lost=1 fault_messages_lost=0 fault_reassigned=1"
    " fault_recovery_rounds=1 fault_backoff_ms=9 fault_straggle_ms=10"
    " degraded=1",
    "mpc-ceccarello/reassign/harsh coreset=243 words=702 comm=699"
    " rounds=3 radius=0x1.6d9fc3c63eb82p+0 merged_size=700 tau=705"
    " coord_words=3180 wire_bytes=5688 wire_frames=2"
    " wire_ratio=1.0171673819742488 fault_crashes=5 fault_drops=0"
    " fault_truncations=0 fault_straggles=0 fault_retries=0"
    " fault_resends=0 fault_resent_words=0 fault_lost_words=0"
    " fault_lost_weight=0 fault_machines_lost=5 fault_messages_lost=0"
    " fault_reassigned=3 fault_recovery_rounds=2 fault_backoff_ms=0"
    " fault_straggle_ms=0 degraded=0",
    "mpc-ceccarello/degrade/chaos coreset=81 words=702 comm=1401 rounds=1"
    " radius=0x1.7992c3c232b08p+0 merged_size=468 tau=705"
    " coord_words=1998 fault_crashes=1 fault_drops=1 fault_truncations=0"
    " fault_straggles=2 fault_retries=0 fault_resends=0"
    " fault_resent_words=0 fault_lost_words=348 fault_lost_weight=232"
    " fault_machines_lost=1 fault_messages_lost=1 fault_reassigned=0"
    " fault_recovery_rounds=0 fault_backoff_ms=0 fault_straggle_ms=10"
    " degraded=1",
    "mpc-ceccarello/degrade/harsh coreset=67 words=702 comm=699 rounds=1"
    " radius=0x1.830175830f577p+0 merged_size=350 tau=705"
    " coord_words=1602 wire_bytes=5688 wire_frames=2"
    " wire_ratio=1.0171673819742488 fault_crashes=3 fault_drops=0"
    " fault_truncations=0 fault_straggles=0 fault_retries=0"
    " fault_resends=0 fault_resent_words=0 fault_lost_words=0"
    " fault_lost_weight=350 fault_machines_lost=3 fault_messages_lost=0"
    " fault_reassigned=0 fault_recovery_rounds=0 fault_backoff_ms=0"
    " fault_straggle_ms=0 degraded=1",
    "mpc-guha/retry/chaos coreset=89 words=576 comm=1041 rounds=1"
    " radius=0x1.b652fdacfcf3bp+0 merged_size=258 coord_words=1392"
    " fault_crashes=3 fault_drops=1 fault_truncations=2 fault_straggles=2"
    " fault_retries=2 fault_resends=2 fault_resent_words=318"
    " fault_lost_words=69 fault_lost_weight=158 fault_machines_lost=1"
    " fault_messages_lost=0 fault_reassigned=0 fault_recovery_rounds=0"
    " fault_backoff_ms=6 fault_straggle_ms=10 degraded=1",
    "mpc-guha/retry/harsh coreset=66 words=576 comm=384 rounds=1"
    " radius=0x1.b24eb388632fdp+0 merged_size=168 coord_words=1053"
    " wire_bytes=3168 wire_frames=2 wire_ratio=1.03125 fault_crashes=3"
    " fault_drops=0 fault_truncations=0 fault_straggles=0 fault_retries=0"
    " fault_resends=0 fault_resent_words=0 fault_lost_words=0"
    " fault_lost_weight=350 fault_machines_lost=3 fault_messages_lost=0"
    " fault_reassigned=0 fault_recovery_rounds=0 fault_backoff_ms=0"
    " fault_straggle_ms=0 degraded=1",
    "mpc-guha/reassign/chaos coreset=108 words=921 comm=1710 rounds=2"
    " radius=0x1.699e0be8ebc36p+0 merged_size=332 coord_words=1671"
    " fault_crashes=3 fault_drops=2 fault_truncations=3 fault_straggles=2"
    " fault_retries=2 fault_resends=4 fault_resent_words=764"
    " fault_lost_words=69 fault_lost_weight=42 fault_machines_lost=1"
    " fault_messages_lost=0 fault_reassigned=1 fault_recovery_rounds=1"
    " fault_backoff_ms=9 fault_straggle_ms=10 degraded=1",
    "mpc-guha/reassign/harsh coreset=110 words=576 comm=384 rounds=3"
    " radius=0x1.5f07a65d1d338p+0 merged_size=355 coord_words=1746"
    " wire_bytes=3168 wire_frames=2 wire_ratio=1.03125 fault_crashes=5"
    " fault_drops=0 fault_truncations=0 fault_straggles=0 fault_retries=0"
    " fault_resends=0 fault_resent_words=0 fault_lost_words=0"
    " fault_lost_weight=0 fault_machines_lost=5 fault_messages_lost=0"
    " fault_reassigned=3 fault_recovery_rounds=2 fault_backoff_ms=0"
    " fault_straggle_ms=0 degraded=0",
    "mpc-guha/degrade/chaos coreset=78 words=576 comm=723 rounds=1"
    " radius=0x1.b652fdacfcf3bp+0 merged_size=228 coord_words=1269"
    " fault_crashes=1 fault_drops=1 fault_truncations=0 fault_straggles=2"
    " fault_retries=0 fault_resends=0 fault_resent_words=0"
    " fault_lost_words=159 fault_lost_weight=232 fault_machines_lost=1"
    " fault_messages_lost=1 fault_reassigned=0 fault_recovery_rounds=0"
    " fault_backoff_ms=0 fault_straggle_ms=10 degraded=1",
    "mpc-guha/degrade/harsh coreset=66 words=576 comm=384 rounds=1"
    " radius=0x1.b24eb388632fdp+0 merged_size=168 coord_words=1053"
    " wire_bytes=3168 wire_frames=2 wire_ratio=1.03125 fault_crashes=3"
    " fault_drops=0 fault_truncations=0 fault_straggles=0 fault_retries=0"
    " fault_resends=0 fault_resent_words=0 fault_lost_words=0"
    " fault_lost_weight=350 fault_machines_lost=3 fault_messages_lost=0"
    " fault_reassigned=0 fault_recovery_rounds=0 fault_backoff_ms=0"
    " fault_straggle_ms=0 degraded=1",
    "mpc-rround/retry/chaos coreset=152 words=636 comm=1707 rounds=2"
    " radius=0x1.970e5668e49a3p+0 beta=3 eps_effective=1.25"
    " coord_words=594 fault_crashes=3 fault_drops=2 fault_truncations=3"
    " fault_straggles=2 fault_retries=2 fault_resends=4"
    " fault_resent_words=762 fault_lost_words=69 fault_lost_weight=158"
    " fault_machines_lost=1 fault_messages_lost=0 fault_reassigned=0"
    " fault_recovery_rounds=0 fault_backoff_ms=9 fault_straggle_ms=10"
    " degraded=1",
    "mpc-rround/retry/harsh coreset=52 words=576 comm=384 rounds=2"
    " radius=0x1.4710d8dcc09e4p+5 beta=3 eps_effective=1.25"
    " coord_words=471 wire_bytes=3168 wire_frames=2 wire_ratio=1.03125"
    " fault_crashes=5 fault_drops=0 fault_truncations=0 fault_straggles=0"
    " fault_retries=0 fault_resends=0 fault_resent_words=0"
    " fault_lost_words=0 fault_lost_weight=467 fault_machines_lost=5"
    " fault_messages_lost=0 fault_reassigned=0 fault_recovery_rounds=0"
    " fault_backoff_ms=0 fault_straggle_ms=0 degraded=1",
    "mpc-rround/reassign/chaos coreset=161 words=921 comm=1290 rounds=3"
    " radius=0x1.811690e26490ep+0 beta=3 eps_effective=1.25"
    " coord_words=594 fault_crashes=3 fault_drops=1 fault_truncations=2"
    " fault_straggles=2 fault_retries=2 fault_resends=2"
    " fault_resent_words=318 fault_lost_words=69 fault_lost_weight=42"
    " fault_machines_lost=1 fault_messages_lost=0 fault_reassigned=1"
    " fault_recovery_rounds=1 fault_backoff_ms=6 fault_straggle_ms=10"
    " degraded=1",
    "mpc-rround/reassign/harsh coreset=150 words=636 comm=797 rounds=5"
    " radius=0x1.5a1a702a600f9p+0 beta=3 eps_effective=1.25"
    " coord_words=1314 wire_bytes=6568 wire_frames=4"
    " wire_ratio=1.0301129234629862 fault_crashes=5 fault_drops=0"
    " fault_truncations=0 fault_straggles=0 fault_retries=0"
    " fault_resends=0 fault_resent_words=0 fault_lost_words=0"
    " fault_lost_weight=0 fault_machines_lost=5 fault_messages_lost=0"
    " fault_reassigned=4 fault_recovery_rounds=3 fault_backoff_ms=0"
    " fault_straggle_ms=0 degraded=0",
    "mpc-rround/degrade/chaos coreset=137 words=636 comm=945 rounds=2"
    " radius=0x1.93939e3db9c26p+0 beta=3 eps_effective=1.25"
    " coord_words=471 fault_crashes=1 fault_drops=1 fault_truncations=1"
    " fault_straggles=2 fault_retries=0 fault_resends=0"
    " fault_resent_words=0 fault_lost_words=162 fault_lost_weight=233"
    " fault_machines_lost=1 fault_messages_lost=1 fault_reassigned=0"
    " fault_recovery_rounds=0 fault_backoff_ms=0 fault_straggle_ms=10"
    " degraded=1",
    "mpc-rround/degrade/harsh coreset=52 words=576 comm=384 rounds=2"
    " radius=0x1.4710d8dcc09e4p+5 beta=3 eps_effective=1.25"
    " coord_words=471 wire_bytes=3168 wire_frames=2 wire_ratio=1.03125"
    " fault_crashes=5 fault_drops=0 fault_truncations=0 fault_straggles=0"
    " fault_retries=0 fault_resends=0 fault_resent_words=0"
    " fault_lost_words=0 fault_lost_weight=467 fault_machines_lost=5"
    " fault_messages_lost=0 fault_reassigned=0 fault_recovery_rounds=0"
    " fault_backoff_ms=0 fault_straggle_ms=0 degraded=1",
};

TEST(FaultGolden, EveryPipelinePolicyAndScheduleMatchesTheBaseline) {
  // The chaos probabilities on a seed whose schedule, on every pipeline,
  // both truncates a shipment and has Reassign rebuild one.
  const auto chaos = [](RecoveryPolicy policy) {
    engine::PipelineConfig cfg = chaos_pipeline_config(policy);
    cfg.fault_seed = 354;
    return cfg;
  };
  const engine::Workload w =
      engine::make_workload(700, chaos(RecoveryPolicy::Retry));
  std::vector<std::string> actual;
  for (const auto& name : mpc_pipeline_names())
    for (const RecoveryPolicy policy :
         {RecoveryPolicy::Retry, RecoveryPolicy::Reassign,
          RecoveryPolicy::Degrade}) {
      const std::string label =
          name + '/' + kc::testing::policy_name(policy);
      actual.push_back(golden_line(
          label + "/chaos", engine::run(name, w, chaos(policy)).report));
      actual.push_back(golden_line(
          label + "/harsh",
          engine::run(name, w, harsh_pipeline_config(policy)).report));
    }
  ASSERT_EQ(actual.size(), std::size(kFaultGolden));
  for (std::size_t i = 0; i < actual.size(); ++i)
    EXPECT_EQ(actual[i], kFaultGolden[i]);
}

TEST(FaultRecovery, ZeroFaultConfigIsByteIdenticalToBaseline) {
  // An all-zero fault config must not perturb a single reported number on
  // any MPC pipeline (the CI perf gate pins the same property against the
  // committed BENCH_engine.json).
  engine::PipelineConfig base;
  base.k = 3;
  base.z = 8;
  base.seed = 4242;
  base.machines = 6;
  base.partition_seed = 17;
  engine::PipelineConfig zero = base;
  zero.fault_seed = 123;  // a seed alone does not activate injection
  const engine::Workload w = engine::make_workload(700, base);
  for (const auto& name : mpc_pipeline_names()) {
    SCOPED_TRACE(name);
    const auto a = engine::run(name, w, base);
    const auto b = engine::run(name, w, zero);
    EXPECT_EQ(a.report.coreset_size, b.report.coreset_size);
    EXPECT_EQ(a.report.words, b.report.words);
    EXPECT_EQ(a.report.comm_words, b.report.comm_words);
    EXPECT_EQ(a.report.rounds, b.report.rounds);
    EXPECT_EQ(a.report.radius, b.report.radius);
    // No fault extras are stamped when injection is inactive.
    EXPECT_DOUBLE_EQ(b.report.get("degraded", -1.0), -1.0);
    EXPECT_DOUBLE_EQ(b.report.get("fault_crashes", -1.0), -1.0);
  }
}

TEST(FaultRecovery, TotalCrashDegradesToTheCoordinatorPartition) {
  // crash_prob = 1: every worker dies in round 1; the run must degrade to
  // the coordinator's own partition and account every other point as lost.
  engine::PipelineConfig cfg;
  cfg.k = 3;
  cfg.z = 8;
  cfg.seed = 4242;
  cfg.machines = 6;
  cfg.partition_seed = 17;
  cfg.fault_seed = 5;
  cfg.fault_crash = 1.0;
  const engine::Workload w = engine::make_workload(700, cfg);
  const auto parts = partition_points(w.planted.points, cfg.machines,
                                      cfg.partition, cfg.partition_seed);
  const std::int64_t survivor_weight = total_weight(parts[0]);

  const auto res = engine::run("mpc-guha", w, cfg);
  const auto& r = res.report;
  EXPECT_DOUBLE_EQ(r.get("fault_machines_lost"), 5.0);
  EXPECT_DOUBLE_EQ(r.get("degraded"), 1.0);
  EXPECT_EQ(static_cast<std::int64_t>(r.get("fault_lost_weight")),
            static_cast<std::int64_t>(w.n()) - survivor_weight);
  EXPECT_EQ(total_weight(res.coreset), survivor_weight);
  ASSERT_FALSE(res.solution.centers.empty());
}

TEST(FaultRecovery, ReassignRebuildsWhatRetryWritesOff) {
  // On a schedule harsh enough to lose machines for good, Reassign must
  // recover weight that Retry writes off (that is its whole point).
  engine::PipelineConfig retry_cfg;
  retry_cfg.k = 3;
  retry_cfg.z = 8;
  retry_cfg.seed = 4242;
  retry_cfg.machines = 6;
  retry_cfg.partition_seed = 17;
  retry_cfg.fault_seed = 11;
  retry_cfg.fault_crash = 0.6;
  retry_cfg.fault_retries = 0;  // first crash is fatal under Retry
  engine::PipelineConfig reassign_cfg = retry_cfg;
  reassign_cfg.fault_policy = RecoveryPolicy::Reassign;
  const engine::Workload w = engine::make_workload(700, retry_cfg);

  const auto retry = engine::run("mpc-guha", w, retry_cfg);
  const auto reassign = engine::run("mpc-guha", w, reassign_cfg);
  ASSERT_GT(retry.report.get("fault_machines_lost"), 0.0);
  EXPECT_GT(retry.report.get("fault_lost_weight"), 0.0);
  EXPECT_GT(reassign.report.get("fault_reassigned"), 0.0);
  EXPECT_LT(reassign.report.get("fault_lost_weight"),
            retry.report.get("fault_lost_weight"));
  EXPECT_GT(reassign.report.get("fault_recovery_rounds"), 0.0);
}

}  // namespace
}  // namespace kc::mpc
