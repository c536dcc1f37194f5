// Deterministic fault injection and recovery for the MPC simulator.
//
// The paper's model (§1) assumes m machines that never fail and synchronous
// rounds that always deliver.  The ROADMAP's distributed-backend item needs
// the opposite: machine crashes, lost or truncated messages, and stragglers,
// plus recovery that either restores the guarantee or *honestly degrades*
// it.  The theory already licenses recovery: by Lemma 4 the union of any
// subset of per-machine mini-ball coverings is a valid covering of the
// union of their partitions, so losing a machine loses only that machine's
// points from the guarantee — a (k, z + lost_weight) solution, never a
// silently wrong one.
//
// Determinism contract (the PR 4 rule): every fault decision is a pure
// counter-based hash of (seed, round, machine/edge, attempt) — never of
// execution order — and all decisions are made in the *sequential* sections
// of `Simulator::round` (pre-map crash/straggle resolution, in-order
// routing).  The same seed therefore yields the same fault schedule, the
// same recovery path, and bit-identical reports at every thread count.
//
// Layering:
//  * `FaultPlan`     — the pure schedule oracle (stateless, hash-based);
//  * `FaultInjector` — plan + config + mutable accounting + the permanent
//    dead-machine set, handed to a `Simulator`;
//  * transport recovery (crash re-execution, message re-send with backoff)
//    lives in `Simulator::round`;
//  * semantic recovery (reassigning a dead machine's partition, degrading
//    to the surviving union) lives in `fan_in` below: the one stage through
//    which every MPC algorithm ships and gathers its coverings;
//  * `coordinate` is the one-round algorithms' coordinator step on what
//    `fan_in` gathered: merge (Lemma 4) and cover once more (Lemma 5).

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "util/rng.hpp"

namespace kc::mpc {

class Simulator;  // simulator.hpp (not included here: it includes us)
struct Message;   // simulator.hpp

/// What to do about work lost past the transport retry budget.
enum class RecoveryPolicy : std::uint8_t {
  Retry,     ///< transport retries only; losses degrade to the surviving union
  Reassign,  ///< dead partitions are adopted by survivors in extra rounds
  Degrade,   ///< no retries at all: accept every fault, degrade immediately
};

/// Parses "retry" / "reassign" / "degrade"; returns false on anything else.
[[nodiscard]] bool parse_recovery_policy(const std::string& name,
                                         RecoveryPolicy* out) noexcept;

struct FaultConfig {
  std::uint64_t seed = 0;      ///< schedule seed (same seed ⇒ same schedule)
  double crash_prob = 0.0;     ///< per machine-round-attempt crash probability
  double drop_prob = 0.0;      ///< per message-attempt drop probability
  double truncate_prob = 0.0;  ///< per point-message-attempt truncation prob
  double straggle_prob = 0.0;  ///< per machine-round straggler probability
  int retry_budget = 2;        ///< re-attempts past the first (crash & resend)
  RecoveryPolicy policy = RecoveryPolicy::Retry;

  /// Injection is active iff any fault has nonzero probability.  Inactive
  /// configs take exactly the pre-fault code paths (byte-identical runs).
  [[nodiscard]] bool active() const noexcept {
    return crash_prob > 0.0 || drop_prob > 0.0 || truncate_prob > 0.0 ||
           straggle_prob > 0.0;
  }

  /// Degrade accepts every fault on first occurrence; the other policies
  /// spend the configured transport budget first.
  [[nodiscard]] int effective_retry_budget() const noexcept {
    return policy == RecoveryPolicy::Degrade ? 0 : retry_budget;
  }
};

/// Simulated delay of one straggle event.
inline constexpr double kStraggleMs = 5.0;
/// Reassign: extra adopter rounds before the rest is written off.
inline constexpr int kMaxRecoveryRounds = 2;

/// Simulated wait before re-attempt `attempt` (1-based) of a crashed
/// machine or a failed message: 1 ms · 2^(attempt−1), capped at 64 ms.  No
/// clock and no randomness, so every run and thread count accounts the
/// same latency.
[[nodiscard]] constexpr double backoff_ms(int attempt) noexcept {
  return attempt >= 7 ? 64.0 : attempt <= 1 ? 1.0 : 1 << (attempt - 1);
}

/// The pure fault schedule: every query is a counter-based splitmix64 hash
/// of its coordinates, so the schedule is a function of the seed alone —
/// independent of thread count, query order, or how often it is asked.
/// Machine 0 (the coordinator) never crashes: in the paper's model its
/// failure is the job's failure, and production coordinators are replicated.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(const FaultConfig& cfg) : cfg_(cfg) {}

  [[nodiscard]] bool crash(int round, int machine, int attempt) const noexcept {
    if (machine == 0) return false;
    return u(kCrash, round, machine, attempt) < cfg_.crash_prob;
  }
  [[nodiscard]] bool drop(int round, int from, int to,
                          int attempt) const noexcept {
    if (from == to) return false;  // local data movement cannot be lost
    return u(kDrop, round, edge(from, to), attempt) < cfg_.drop_prob;
  }
  [[nodiscard]] bool truncate(int round, int from, int to,
                              int attempt) const noexcept {
    if (from == to) return false;
    return u(kTrunc, round, edge(from, to), attempt) < cfg_.truncate_prob;
  }
  /// Fraction of a truncated payload that survives, in [1/4, 1).
  [[nodiscard]] double truncate_keep_fraction(int round, int from,
                                              int to) const noexcept {
    return 0.25 + 0.75 * u(kTruncKeep, round, edge(from, to), 0);
  }
  [[nodiscard]] bool straggle(int round, int machine) const noexcept {
    return u(kStraggle, round, machine, 0) < cfg_.straggle_prob;
  }

 private:
  enum Stream : std::uint64_t {
    kCrash = 0x1,
    kDrop = 0x2,
    kTrunc = 0x3,
    kTruncKeep = 0x4,
    kStraggle = 0x5,
  };

  static std::uint64_t edge(int from, int to) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
            << 32) |
           static_cast<std::uint32_t>(to);
  }

  [[nodiscard]] double u(std::uint64_t stream, int round, std::uint64_t key,
                         int attempt) const noexcept {
    std::uint64_t h = splitmix64(cfg_.seed ^ (stream * 0x9e3779b97f4a7c15ULL));
    h = splitmix64(h ^ static_cast<std::uint64_t>(round));
    h = splitmix64(h ^ key);
    h = splitmix64(h ^ static_cast<std::uint64_t>(attempt));
    return static_cast<double>(h >> 11) * 0x1.0p-53;
  }

  FaultConfig cfg_{};
};

/// Honest accounting of everything injected and everything it cost.
/// Transport-level fields are filled by `Simulator::round`; the semantic
/// fields (`lost_weight`, `partitions_reassigned`, `degraded`) by the
/// algorithm-layer recovery.
struct FaultStats {
  int crashes = 0;       ///< crash events injected (incl. retried attempts)
  int drops = 0;         ///< message-attempt drops injected
  int truncations = 0;   ///< truncation events injected
  int straggles = 0;     ///< straggler delays injected
  int retries = 0;       ///< crash re-executions granted
  int resends = 0;       ///< message re-send attempts
  int machines_lost = 0; ///< machines dead past the retry budget
  int messages_lost = 0; ///< messages dropped past the retry budget
  int partitions_reassigned = 0;  ///< orphan shipments rebuilt by survivors
  int recovery_rounds = 0;        ///< extra rounds spent on reassignment
  std::size_t resent_words = 0;   ///< wire words spent on re-sends
  std::size_t lost_words = 0;     ///< wire words of permanently lost payload
  std::int64_t lost_weight = 0;   ///< input weight absent from the summary
  double backoff_ms = 0.0;        ///< simulated retry backoff latency
  double straggle_ms = 0.0;       ///< simulated straggler latency
  /// The run fell back to the surviving union (Lemma 4): the result is a
  /// valid (k, z + lost_weight) solution, but the pipeline's registered
  /// quality bound is no longer certified.  Reports must carry this flag.
  bool degraded = false;
};

/// Plan + policy + accounting + the permanent dead set, shared by one
/// simulator run (and its recovery rounds).
class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& cfg)
      : cfg_(cfg), plan_(cfg) {}

  [[nodiscard]] bool enabled() const noexcept { return cfg_.active(); }
  [[nodiscard]] const FaultConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] FaultStats& stats() noexcept { return stats_; }
  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }

  [[nodiscard]] bool alive(int machine) const noexcept {
    return machine < 0 ||
           static_cast<std::size_t>(machine) >= dead_.size() ||
           dead_[static_cast<std::size_t>(machine)] == 0;
  }
  void mark_dead(int machine) {
    if (machine < 0) return;
    if (static_cast<std::size_t>(machine) >= dead_.size())
      dead_.resize(static_cast<std::size_t>(machine) + 1, 0);
    dead_[static_cast<std::size_t>(machine)] = 1;
  }

 private:
  FaultConfig cfg_;
  FaultPlan plan_;
  FaultStats stats_;
  std::vector<char> dead_;
};

/// Builds machine `id`'s shipment from its durable holding; a summarize
/// also sees the inbox the previous round delivered to it.  Must be a pure
/// function of its arguments: an adopter re-runs it for a dead machine.
using SummarizeFn =
    std::function<WeightedSet(int id, const std::vector<Message>& inbox)>;
using RebuildFn = std::function<WeightedSet(int id)>;

/// The fan-in stage every MPC algorithm composes coverings with (Lemma 4):
/// in one simulator round each machine s < `senders` ships `summarize(s)`
/// to machine s / `beta` (machine 0's shipment to itself is local data
/// movement, never faulted); the stage then collects one shipment per
/// sender.  A shipment missing from a nonempty holding (dead machine, lost
/// message) is recovered per the injector's policy — Reassign runs up to
/// `kMaxRecoveryRounds` extra rounds in which deterministic adopters
/// `rebuild` orphan shipments from the durable holdings, tagged with the
/// orphan's id (storage and communication honestly re-accounted, the fault
/// plan still active) — and anything still missing (or under
/// Retry/Degrade) is written off as lost weight and flags the run
/// degraded.  Returns the shipments in sender order; a written-off one
/// stays empty.  Without an active injector nothing is ever missing.
[[nodiscard]] std::vector<WeightedSet> fan_in(
    Simulator& sim, const std::vector<WeightedSet>& holdings, int senders,
    int beta, const SummarizeFn& summarize, const RebuildFn& rebuild);

/// The common case: a shipment depends on the holding alone, so `build`
/// both summarizes and rebuilds.
[[nodiscard]] std::vector<WeightedSet> fan_in(
    Simulator& sim, const std::vector<WeightedSet>& holdings, int senders,
    int beta, const RebuildFn& build);

/// What the coordinator of a one-round algorithm holds: the union of the
/// shipments and the coreset covering it, plus each shipment's size.
struct Coordinated {
  WeightedSet coreset;  ///< MBCConstruction(merged, k, z, ε)
  WeightedSet merged;   ///< ∪ shipments before the final cover (diagnostics)
  std::vector<std::size_t> local_coreset_sizes;  ///< per sender, in order
};

/// The coordinator step on machine 0, which also holds `own_points` input
/// points: merges the gathered coverings (Lemma 4) and covers the union
/// once more with MBCConstruction(·, k, z, ε), giving a
/// compose_eps(ε, γ)-covering of the input when the shipments were
/// γ-coverings (Lemma 5).  Records the coordinator's peak storage.
[[nodiscard]] Coordinated coordinate(Simulator& sim, std::size_t own_points,
                                     const std::vector<WeightedSet>& shipments,
                                     int k, std::int64_t z, double eps,
                                     const Metric& metric);

}  // namespace kc::mpc
