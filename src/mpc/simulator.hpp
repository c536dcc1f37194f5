// MPC round simulator (paper §1, §3).
//
// Implements the abstract Massively Parallel Computing model the paper's
// theorems are stated in: m machines (machine 0 is the coordinator M1),
// synchronous communication rounds, and *measured* storage in machine
// words.  The design mirrors MPI's message-passing discipline: a round is
// local computation followed by message exchange; messages carry either
// scalar vectors (the V_i radius tables of Algorithm 2) or weighted point
// sets (coreset shipments, packed once into a SoA `PointPayload` — see
// mpc/message.hpp).
//
// What we account, following the model rather than process RSS:
//  * one coordinate = 1 word, so a weighted point in R^d = d+1 words;
//  * a scalar = 1 word;
//  * per-machine peak storage = max over rounds of (resident input points +
//    received messages + locally built summaries), self-reported by the
//    algorithms through `record_storage`;
//  * per-round and total communication volume in words — including, under
//    fault injection, the bandwidth burned by dropped attempts and
//    re-sends.
//
// Machine-local work within a round is embarrassingly parallel and runs on
// a `kc::ThreadPool` when one is supplied (one machine per task, merged in
// machine-index order), so the simulated machines occupy real cores.  The
// map-phase wall time and the thread count are recorded in MpcStats; with
// no pool (or a single-thread pool) the machines run sequentially with
// bit-identical results.
//
// Message routing goes through a `Transport` (mpc/transport.hpp): the
// default `Local` backend is the in-process hand-off, while the `Wire`
// backend sends every non-self message through an encode → decode of its
// checksummed wire frame and measures the frame bytes next to the
// model-predicted words.  Neither backend loses a message: every loss
// comes from the fault injector below.
//
// Fault model (mpc/faults.hpp): an optional `FaultInjector` adds machine
// crashes, message drops/truncations, and stragglers.  All fault decisions
// are resolved in the sequential sections of `round` (never in the
// parallel map phase), so a fixed fault seed gives the same schedule at
// every thread count.  Crash semantics are crash-at-round-start with
// checkpointed round boundaries: a crashed attempt does no observable work
// and is re-executed (up to the retry budget) from the machine's durable
// state — its resident partition plus previously delivered messages.  A
// machine that exhausts the budget is permanently dead and skips all later
// rounds.  Without an (active) injector every code path below is exactly
// the pre-fault one.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mpc/context.hpp"
#include "mpc/faults.hpp"
#include "mpc/message.hpp"
#include "mpc/transport.hpp"
#include "util/parallel.hpp"

namespace kc::mpc {

struct MpcStats {
  int rounds = 0;  ///< communication rounds executed
  int threads = 1;     ///< pool threads the map phases ran on
  double map_ms = 0.0; ///< total wall time of the map phases (all rounds)
  double route_ms = 0.0;  ///< total wall time of the routing phases
  std::vector<std::size_t> peak_words;  ///< per machine
  std::vector<std::size_t> comm_words_per_round;
  std::size_t total_comm_words = 0;
  FaultStats faults;  ///< injected faults; all-zero when none
  WireStats wire;  ///< measured transport bytes; all-zero on local

  /// Peak storage over worker machines (ids ≥ 1).
  [[nodiscard]] std::size_t max_worker_words() const;
  /// Peak storage of the coordinator (id 0).
  [[nodiscard]] std::size_t coordinator_words() const;
};

/// The dimension a run over `parts` works in: that of the first nonempty
/// partition, 1 when every partition is empty.
[[nodiscard]] int parts_dim(const std::vector<WeightedSet>& parts);

class Simulator {
 public:
  /// m ≥ 1 machines in dimension dim.  Machine 0 is the coordinator.
  /// The context supplies the (optional, non-owning) environment:
  /// `ctx.pool` runs the per-machine map phase of each round concurrently;
  /// `ctx.faults` injects the deterministic fault schedule (an inactive
  /// injector is equivalent to none); `ctx.transport` routes messages
  /// (nullptr = a simulator-owned local transport).  Everything the
  /// context points at must outlive the simulator.
  explicit Simulator(int m, int dim, const ExecContext& ctx = {});

  [[nodiscard]] int machines() const noexcept { return m_; }

  /// The attached injector when it is active, else nullptr.
  [[nodiscard]] FaultInjector* faults() const noexcept { return faults_; }

  /// False once the machine crashed past its retry budget.
  [[nodiscard]] bool alive(int id) const noexcept {
    return faults_ == nullptr || faults_->alive(id);
  }

  /// Registers `words` as currently resident on machine `id`; the peak is
  /// tracked.  Algorithms call this with their full resident footprint at
  /// the moments it is largest (after receiving, after building summaries).
  void record_storage(int id, std::size_t words);

  /// Account for the words of a weighted point set.
  [[nodiscard]] std::size_t point_words(std::size_t count) const noexcept {
    return count * static_cast<std::size_t>(dim_ + 1);
  }

  /// Executes one synchronous round: `fn(id, inbox, outbox)` runs for every
  /// machine (concurrently on the pool when one was supplied — `fn` may
  /// freely touch per-machine state indexed by `id`, but nothing shared
  /// across ids), then outgoing messages are routed in machine-index order
  /// through the transport and become the next round's inboxes.
  /// Communication volume is accounted per round; the map phase's wall
  /// time accumulates in `stats().map_ms`, the routing phase's in
  /// `stats().route_ms`.  Under an active injector, crashed machines are
  /// deterministically re-executed up to the retry budget (then skipped
  /// for good), messages are dropped/truncated/re-sent per the plan, and
  /// every attempt's bandwidth is accounted — and sent through the
  /// transport, so the wire-byte measurement matches the words accounting.
  using RoundFn =
      std::function<void(int id, std::vector<Message>& inbox,
                         std::vector<Message>& outbox)>;
  void round(const RoundFn& fn);

  /// Inbox currently waiting at machine `id` (delivered by the last round).
  [[nodiscard]] std::vector<Message>& inbox(int id);

  /// Snapshot of the measured quantities, with fault and wire accounting
  /// folded in.
  [[nodiscard]] MpcStats stats() const;

 private:
  int m_;
  int dim_;
  ThreadPool* pool_;          ///< not owned; nullptr = sequential map phase
  FaultInjector* faults_;     ///< not owned; nullptr = no fault injection
  Transport owned_transport_;  ///< local fallback when ctx has none
  Transport* transport_;       ///< never null after construction
  std::vector<std::vector<Message>> inboxes_;
  MpcStats stats_;
};

}  // namespace kc::mpc
