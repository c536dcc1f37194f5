#include "mpc/simulator.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"
#include "util/timer.hpp"

namespace kc::mpc {

std::size_t MpcStats::max_worker_words() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < peak_words.size(); ++i)
    best = std::max(best, peak_words[i]);
  return best;
}

std::size_t MpcStats::coordinator_words() const {
  return peak_words.empty() ? 0 : peak_words[0];
}

int parts_dim(const std::vector<WeightedSet>& parts) {
  for (const auto& part : parts)
    if (!part.empty()) return part.front().p.dim();
  return 1;
}

Simulator::Simulator(int m, int dim, const ExecContext& ctx)
    : m_(m),
      dim_(dim),
      pool_(ctx.pool),
      faults_(ctx.faults != nullptr && ctx.faults->enabled() ? ctx.faults
                                                             : nullptr) {
  KC_EXPECTS(m >= 1);
  KC_EXPECTS(dim >= 1);
  transport_ = ctx.transport != nullptr ? ctx.transport : &owned_transport_;
  transport_->open(m, dim);
  inboxes_.resize(static_cast<std::size_t>(m));
  stats_.threads = pool_ ? pool_->num_threads() : 1;
  stats_.peak_words.assign(static_cast<std::size_t>(m), 0);
}

void Simulator::record_storage(int id, std::size_t words) {
  KC_EXPECTS(id >= 0 && id < m_);
  auto& peak = stats_.peak_words[static_cast<std::size_t>(id)];
  peak = std::max(peak, words);
}

std::vector<Message>& Simulator::inbox(int id) {
  KC_EXPECTS(id >= 0 && id < m_);
  return inboxes_[static_cast<std::size_t>(id)];
}

MpcStats Simulator::stats() const {
  MpcStats out = stats_;
  if (faults_ != nullptr) out.faults = faults_->stats();
  out.wire = transport_->wire();
  return out;
}

void Simulator::round(const RoundFn& fn) {
  std::vector<std::vector<Message>> outboxes(static_cast<std::size_t>(m_));
  const int round_idx = stats_.rounds;

  // Fault pre-phase (sequential, *before* the parallel map): resolve every
  // crash/straggle decision from the counter-hashed plan so the schedule —
  // and everything downstream of it — is identical at any thread count.
  // Crash-at-round-start semantics: a crashed attempt does no observable
  // work; the machine re-executes from its checkpointed state on the next
  // attempt, up to the retry budget, after which it is permanently dead.
  std::vector<char> runs(static_cast<std::size_t>(m_), 1);
  if (faults_ != nullptr) {
    auto& fs = faults_->stats();
    const FaultPlan& plan = faults_->plan();
    const int budget = faults_->config().effective_retry_budget();
    for (int id = 0; id < m_; ++id) {
      const auto uid = static_cast<std::size_t>(id);
      if (!faults_->alive(id)) {
        runs[uid] = 0;
        continue;
      }
      int attempt = 0;
      while (plan.crash(round_idx, id, attempt)) {
        ++fs.crashes;
        if (attempt >= budget) {
          faults_->mark_dead(id);
          ++fs.machines_lost;
          runs[uid] = 0;
          break;
        }
        ++fs.retries;
        fs.backoff_ms += backoff_ms(attempt + 1);
        ++attempt;
      }
      if (runs[uid] != 0 && plan.straggle(round_idx, id)) {
        ++fs.straggles;
        fs.straggle_ms += kStraggleMs;
      }
    }
  }

  // Map phase: one machine per task.  Each machine touches only its own
  // inbox/outbox (and whatever id-indexed state `fn` owns), so the pool
  // may schedule them in any order without affecting the result.
  Timer map_timer;
  const auto run_machine = [&](std::size_t id) {
    if (runs[id] != 0) fn(static_cast<int>(id), inboxes_[id], outboxes[id]);
  };
  if (pool_ != nullptr && pool_->num_threads() > 1) {
    pool_->parallel_for(static_cast<std::size_t>(m_), 1,
                        [&](std::size_t begin, std::size_t end) {
                          for (std::size_t id = begin; id < end; ++id)
                            run_machine(id);
                        });
  } else {
    for (std::size_t id = 0; id < static_cast<std::size_t>(m_); ++id)
      run_machine(id);
  }
  stats_.map_ms += map_timer.millis();

  // Route messages through the transport; this is the communication phase
  // of the round.  Under fault injection each delivery may take several
  // attempts: every attempt burns its bandwidth — and goes through the
  // transport, so measured wire bytes track the words accounting — re-
  // sends past the first are accounted as such, and a message dropped on
  // every attempt is gone for good; the *semantic* consequence (lost
  // weight, degraded bound) is judged by the algorithm-layer recovery,
  // which knows what the message meant.
  Timer route_timer;
  std::size_t round_words = 0;
  for (auto& box : inboxes_) box.clear();
  for (int from = 0; from < m_; ++from) {
    for (auto& msg : outboxes[static_cast<std::size_t>(from)]) {
      KC_EXPECTS(msg.to >= 0 && msg.to < m_);
      msg.from = from;
      // A self-addressed message is local data movement, not communication
      // — and never faulted.
      if (msg.to == from) {
        inboxes_[static_cast<std::size_t>(msg.to)].push_back(std::move(msg));
        continue;
      }
      const int to = msg.to;
      const std::size_t wire_words = msg.words(dim_);
      if (faults_ == nullptr) {
        round_words += wire_words;
        inboxes_[static_cast<std::size_t>(to)].push_back(
            transport_->deliver(std::move(msg)));
        continue;
      }
      auto& fs = faults_->stats();
      const FaultPlan& plan = faults_->plan();
      const int budget = faults_->config().effective_retry_budget();
      bool delivered = false;
      for (int attempt = 0; attempt <= budget; ++attempt) {
        round_words += wire_words;
        if (attempt > 0) {
          ++fs.resends;
          fs.resent_words += wire_words;
          fs.backoff_ms += backoff_ms(attempt);
        }
        const bool inj_drop = plan.drop(round_idx, from, to, attempt);
        bool inj_trunc_retry = false;
        bool inj_trunc_final = false;
        std::size_t keep = 0;
        if (!inj_drop && msg.payload.full_size() > 0 &&
            plan.truncate(round_idx, from, to, attempt)) {
          ++fs.truncations;
          // A truncated transfer fails its checksum and is retried like a
          // drop — except on the final attempt, where the surviving prefix
          // is delivered (partial data beats none; the receiver accounts
          // the cut weight and flags degradation).
          if (attempt < budget) {
            inj_trunc_retry = true;
          } else {
            inj_trunc_final = true;
            keep = static_cast<std::size_t>(
                plan.truncate_keep_fraction(round_idx, from, to) *
                static_cast<double>(msg.payload.full_size()));
          }
        }
        // The attempt goes through the transport regardless of the plan's
        // verdict — injected drops/truncations model transfers that failed
        // *after* burning their bandwidth.
        Message got = transport_->deliver(Message(msg));
        if (inj_drop) {
          ++fs.drops;
          continue;
        }
        if (inj_trunc_retry) continue;
        if (inj_trunc_final) {
          got.payload.truncate_to(keep);
          fs.lost_words += wire_words - got.words(dim_);
        }
        inboxes_[static_cast<std::size_t>(to)].push_back(std::move(got));
        delivered = true;
        break;
      }
      if (!delivered) {
        ++fs.messages_lost;
        fs.lost_words += wire_words;
      }
    }
  }
  transport_->end_round();
  stats_.route_ms += route_timer.millis();
  stats_.comm_words_per_round.push_back(round_words);
  stats_.total_comm_words += round_words;
  ++stats_.rounds;
}

}  // namespace kc::mpc
