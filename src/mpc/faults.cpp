#include "mpc/faults.hpp"

#include <utility>

#include "core/mbc.hpp"
#include "mpc/simulator.hpp"
#include "util/check.hpp"

namespace kc::mpc {

bool parse_recovery_policy(const std::string& name,
                           RecoveryPolicy* out) noexcept {
  if (name == "retry") {
    *out = RecoveryPolicy::Retry;
    return true;
  }
  if (name == "reassign") {
    *out = RecoveryPolicy::Reassign;
    return true;
  }
  if (name == "degrade") {
    *out = RecoveryPolicy::Degrade;
    return true;
  }
  return false;
}

namespace {

// Deterministic adopter for a dead machine's holding: the first alive
// machine on the ring (dead+1, …, m−1, 1, …, dead−1).
int choose_adopter(const FaultInjector& faults, int machines,
                   int dead) noexcept {
  for (int step = 1; step < machines; ++step) {
    const int id = (dead + step) % machines;
    if (id != 0 && faults.alive(id)) return id;
  }
  return 0;  // the coordinator adopts when no worker survives
}

// Receiver-side accounting for a transport-truncated point payload: the
// cut rows' weight is gone from the summary, and the registered bound can
// no longer be certified.
void account_payload_truncation(FaultInjector* faults, const Message& msg) {
  if (faults == nullptr || !msg.payload.truncated()) return;
  faults->stats().lost_weight += msg.payload.cut_weight();
  faults->stats().degraded = true;
}

}  // namespace

std::vector<WeightedSet> fan_in(Simulator& sim,
                                const std::vector<WeightedSet>& holdings,
                                int senders, int beta,
                                const SummarizeFn& summarize,
                                const RebuildFn& rebuild) {
  const int m = sim.machines();
  KC_EXPECTS(static_cast<int>(holdings.size()) == m);
  KC_EXPECTS(senders >= 1 && senders <= m && beta >= 1);
  FaultInjector* faults = sim.faults();
  const auto held = [&](int id) -> const WeightedSet& {
    return holdings[static_cast<std::size_t>(id)];
  };
  const auto ship = [&](std::vector<Message>& outbox, int sender, int adopter,
                        WeightedSet summary) {
    // The shipping machine holds its own input, the holding it summarized
    // (the same one unless it adopted an orphan) and the summary.
    sim.record_storage(
        adopter,
        sim.point_words((adopter == sender ? 0 : held(adopter).size()) +
                        held(sender).size() + summary.size()));
    Message msg;
    msg.to = sender / beta;
    if (adopter != sender) msg.scalars.push_back(static_cast<double>(sender));
    msg.payload = PointPayload(summary);
    outbox.push_back(std::move(msg));
  };

  sim.round([&](int id, std::vector<Message>& inbox,
                std::vector<Message>& outbox) {
    if (id < senders) ship(outbox, id, id, summarize(id, inbox));
  });

  // A recovery shipment is tagged with its orphan sender's id.
  std::vector<WeightedSet> shipments(static_cast<std::size_t>(senders));
  std::vector<char> have(static_cast<std::size_t>(senders), 0);
  const auto collect = [&] {
    for (int to = 0; to * beta < senders; ++to)
      for (auto& msg : sim.inbox(to)) {
        const bool tagged = !msg.scalars.empty();
        const int s = tagged ? static_cast<int>(msg.scalars[0]) : msg.from;
        if (s < 0 || s >= senders || have[static_cast<std::size_t>(s)] != 0)
          continue;
        account_payload_truncation(faults, msg);
        shipments[static_cast<std::size_t>(s)] = msg.payload.unpack();
        have[static_cast<std::size_t>(s)] = 1;
        if (tagged) ++faults->stats().partitions_reassigned;
      }
  };
  // Senders with an empty holding legitimately ship nothing of weight;
  // everything else that is absent must be recovered or written off.
  const auto missing = [&] {
    std::vector<int> miss;
    for (int s = 0; s < senders; ++s)
      if (have[static_cast<std::size_t>(s)] == 0 && !held(s).empty())
        miss.push_back(s);
    return miss;
  };
  collect();
  std::vector<int> miss = missing();
  // Only an injected fault loses a shipment: without an injector every
  // machine runs and every message is delivered.
  if (miss.empty()) return shipments;
  KC_ENSURES(faults != nullptr);

  if (faults->config().policy == RecoveryPolicy::Reassign) {
    for (int pass = 0; pass < kMaxRecoveryRounds && !miss.empty(); ++pass) {
      ++faults->stats().recovery_rounds;
      // Adopters are fixed deterministically before the round; the round
      // itself still runs under the fault plan (an adopter may crash, a
      // recovered shipment may drop — the next pass tries again).
      std::vector<std::pair<int, int>> tasks;  // (orphan, adopter)
      tasks.reserve(miss.size());
      for (int s : miss) tasks.emplace_back(s, choose_adopter(*faults, m, s));
      sim.round([&](int id, std::vector<Message>& /*inbox*/,
                    std::vector<Message>& outbox) {
        for (const auto& [orphan, adopter] : tasks)
          if (adopter == id) ship(outbox, orphan, id, rebuild(orphan));
      });
      collect();
      miss = missing();
    }
  }

  // Lemma 4: the union of the surviving coverings is still a valid
  // covering of the surviving points — the result degrades to a
  // (k, z + lost_weight) guarantee instead of failing.
  for (int s : miss) {
    faults->stats().lost_weight += total_weight(held(s));
    faults->stats().degraded = true;
  }
  return shipments;
}

std::vector<WeightedSet> fan_in(Simulator& sim,
                                const std::vector<WeightedSet>& holdings,
                                int senders, int beta,
                                const RebuildFn& build) {
  return fan_in(
      sim, holdings, senders, beta,
      [&](int id, const std::vector<Message>& /*inbox*/) { return build(id); },
      build);
}

Coordinated coordinate(Simulator& sim, std::size_t own_points,
                       const std::vector<WeightedSet>& shipments, int k,
                       std::int64_t z, double eps, const Metric& metric) {
  Coordinated out;
  for (const auto& shipment : shipments)
    out.local_coreset_sizes.push_back(shipment.size());
  out.merged = merge_coresets(shipments);
  out.coreset = mbc_construct(out.merged, k, z, eps, metric).reps;
  sim.record_storage(0, sim.point_words(own_points + out.merged.size() +
                                        out.coreset.size()));
  return out;
}

}  // namespace kc::mpc
