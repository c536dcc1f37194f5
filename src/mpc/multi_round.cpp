#include "mpc/multi_round.hpp"

#include <cmath>
#include <utility>

#include "core/coreset.hpp"
#include "core/mbc.hpp"
#include "util/check.hpp"

namespace kc::mpc {

MultiRoundResult multi_round_coreset(const std::vector<WeightedSet>& parts,
                                     int k, std::int64_t z,
                                     const Metric& metric,
                                     const ExecContext& ctx,
                                     const MultiRoundOptions& opt) {
  KC_EXPECTS(!parts.empty());
  KC_EXPECTS(opt.rounds >= 1);
  const int m = static_cast<int>(parts.size());
  int dim = 1;
  for (const auto& part : parts)
    if (!part.empty()) {
      dim = part.front().p.dim();
      break;
    }

  // β = ⌈m^{1/R}⌉; after R rounds a single machine remains.
  const int beta = std::max(
      2, static_cast<int>(std::ceil(
             std::pow(static_cast<double>(m), 1.0 / opt.rounds))));

  Simulator sim(m, dim, ctx);
  FaultInjector* faults = sim.faults();
  // Holdings are the durable round-boundary checkpoints of the fault model:
  // a recovery adopter may rebuild any machine's stage output from them.
  std::vector<WeightedSet> holdings = parts;

  int active = m;
  for (int t = 0; t < opt.rounds; ++t) {
    const int next_active = (active + beta - 1) / beta;
    const auto summarize = [&](int id) {
      return mbc_construct(holdings[static_cast<std::size_t>(id)], k, z,
                           opt.eps, metric, opt.oracle)
          .reps;
    };
    sim.round([&](int id, std::vector<Message>& /*inbox*/,
                  std::vector<Message>& outbox) {
      if (id >= active) return;
      const auto uid = static_cast<std::size_t>(id);
      const WeightedSet& mine = holdings[uid];
      sim.record_storage(id, sim.point_words(mine.size()));
      WeightedSet reps = summarize(id);
      sim.record_storage(id, sim.point_words(mine.size() + reps.size()));
      Message msg;
      msg.to = id / beta;  // 0-indexed fan-in target (self for id < beta)
      msg.payload = PointPayload(reps);
      outbox.push_back(std::move(msg));
    });

    // Collect stage shipments per sender (stage messages carry no scalars;
    // recovery shipments below are tagged with the orphan sender's id).
    std::vector<WeightedSet> arrived(static_cast<std::size_t>(active));
    std::vector<char> have(static_cast<std::size_t>(active), 0);
    const auto collect = [&](bool tagged) {
      for (int id = 0; id < next_active; ++id) {
        for (auto& msg : sim.inbox(id)) {
          int sender = msg.from;
          if (tagged) {
            if (msg.scalars.empty()) continue;
            sender = static_cast<int>(msg.scalars[0]);
          } else if (!msg.scalars.empty()) {
            continue;
          }
          if (sender < 0 || sender >= active || sender / beta != id ||
              have[static_cast<std::size_t>(sender)] != 0)
            continue;
          account_payload_truncation(faults, msg);
          arrived[static_cast<std::size_t>(sender)] = msg.payload.unpack();
          have[static_cast<std::size_t>(sender)] = 1;
        }
      }
    };
    collect(/*tagged=*/false);

    // A sender with a durable nonempty holding whose shipment never made it
    // (dead machine or lost message) must be recovered or written off.
    const auto missing = [&] {
      std::vector<int> miss;
      for (int s = 0; s < active; ++s)
        if (have[static_cast<std::size_t>(s)] == 0 &&
            !holdings[static_cast<std::size_t>(s)].empty())
          miss.push_back(s);
      return miss;
    };

    std::vector<int> miss = missing();
    if (!miss.empty() && faults != nullptr &&
        faults->config().policy == RecoveryPolicy::Reassign) {
      const FaultConfig& fc = faults->config();
      for (int pass = 0; pass < fc.max_recovery_rounds && !miss.empty();
           ++pass) {
        ++faults->stats().recovery_rounds;
        std::vector<std::pair<int, int>> tasks;  // (orphan, adopter)
        tasks.reserve(miss.size());
        for (int s : miss) tasks.emplace_back(s, choose_adopter(*faults, m, s));
        sim.round([&](int id, std::vector<Message>& /*inbox*/,
                      std::vector<Message>& outbox) {
          for (const auto& [orphan, adopter] : tasks) {
            if (adopter != id) continue;
            WeightedSet reps = summarize(orphan);
            sim.record_storage(
                id, sim.point_words(
                        holdings[static_cast<std::size_t>(id)].size() +
                        holdings[static_cast<std::size_t>(orphan)].size() +
                        reps.size()));
            Message msg;
            msg.to = orphan / beta;
            msg.scalars.push_back(static_cast<double>(orphan));
            msg.payload = PointPayload(reps);
            outbox.push_back(std::move(msg));
          }
        });
        collect(/*tagged=*/true);
        const std::size_t before = miss.size();
        miss = missing();
        faults->stats().partitions_reassigned +=
            static_cast<int>(before - miss.size());
      }
    }
    // Lemma 4: drop the unrecoverable holdings from the guarantee.  Only
    // an injected fault loses a shipment: without an injector every
    // machine runs and every message is delivered.
    KC_ENSURES(miss.empty() || faults != nullptr);
    for (int s : miss) {
      faults->stats().lost_weight +=
          total_weight(holdings[static_cast<std::size_t>(s)]);
      faults->stats().degraded = true;
    }

    // New holdings = everything received this stage, in sender order.
    for (auto& h : holdings) h.clear();
    for (int s = 0; s < active; ++s) {
      auto& h = holdings[static_cast<std::size_t>(s / beta)];
      auto& got = arrived[static_cast<std::size_t>(s)];
      h.insert(h.end(), got.begin(), got.end());
    }
    for (int id = 0; id < next_active; ++id)
      sim.record_storage(
          id, sim.point_words(holdings[static_cast<std::size_t>(id)].size()));
    active = next_active;
  }
  KC_ENSURES(active == 1);

  MultiRoundResult result;
  result.coreset = std::move(holdings[0]);
  result.eps_effective = compose_eps_rounds(opt.eps, opt.rounds);
  result.beta = beta;
  result.stats = sim.stats();
  return result;
}

}  // namespace kc::mpc
