#include "mpc/faults.hpp"

#include "mpc/simulator.hpp"
#include "util/check.hpp"

namespace kc::mpc {

const char* to_string(RecoveryPolicy policy) noexcept {
  switch (policy) {
    case RecoveryPolicy::Retry:
      return "retry";
    case RecoveryPolicy::Reassign:
      return "reassign";
    case RecoveryPolicy::Degrade:
      return "degrade";
  }
  return "retry";
}

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

int choose_adopter(const FaultInjector& faults, int machines,
                   int dead) noexcept {
  for (int step = 1; step < machines; ++step) {
    const int id = (dead + step) % machines;
    if (id != 0 && faults.alive(id)) return id;
  }
  return 0;  // the coordinator adopts when no worker survives
}

void account_payload_truncation(FaultInjector* faults, const Message& msg) {
  if (faults == nullptr || !msg.payload.truncated()) return;
  faults->stats().lost_weight += msg.payload.cut_weight();
  faults->stats().degraded = true;
}

GatherResult gather_with_recovery(Simulator& sim,
                                  const std::vector<WeightedSet>& parts,
                                  WeightedSet own, const RebuildFn& rebuild) {
  const int m = sim.machines();
  KC_EXPECTS(static_cast<int>(parts.size()) == m);
  FaultInjector* faults = sim.faults();

  GatherResult out;
  out.shipments.resize(static_cast<std::size_t>(m));
  out.shipments[0] = std::move(own);
  std::vector<char> have(static_cast<std::size_t>(m), 0);
  have[0] = 1;
  for (auto& msg : sim.inbox(0)) {
    if (msg.from == 0) continue;  // the coordinator's own data is `own`
    account_payload_truncation(faults, msg);
    out.shipments[static_cast<std::size_t>(msg.from)] = msg.payload.unpack();
    have[static_cast<std::size_t>(msg.from)] = 1;
  }

  // Machines with an empty partition legitimately ship nothing of weight;
  // everything else that is absent must be recovered or written off.
  const auto missing = [&] {
    std::vector<int> miss;
    for (int i = 1; i < m; ++i)
      if (have[static_cast<std::size_t>(i)] == 0 &&
          !parts[static_cast<std::size_t>(i)].empty())
        miss.push_back(i);
    return miss;
  };

  // Only an injected fault loses a shipment: without an injector every
  // machine runs and every message is delivered.
  std::vector<int> miss = missing();
  if (miss.empty()) return out;
  KC_ENSURES(faults != nullptr);

  if (faults->config().policy == RecoveryPolicy::Reassign) {
    const FaultConfig& fc = faults->config();
    for (int pass = 0; pass < fc.max_recovery_rounds && !miss.empty();
         ++pass) {
      ++faults->stats().recovery_rounds;
      // Adopters are fixed deterministically before the round; the round
      // itself still runs under the fault plan (an adopter may crash, a
      // recovered shipment may drop — the next pass tries again).
      std::vector<std::pair<int, int>> tasks;  // (orphan, adopter)
      tasks.reserve(miss.size());
      for (int i : miss) tasks.emplace_back(i, choose_adopter(*faults, m, i));
      sim.round([&](int id, std::vector<Message>& /*inbox*/,
                    std::vector<Message>& outbox) {
        for (const auto& [orphan, adopter] : tasks) {
          if (adopter != id) continue;
          WeightedSet summary = rebuild(orphan);
          // The adopter now holds its own partition, the orphan partition
          // it re-read, and the rebuilt summary.
          sim.record_storage(
              id, sim.point_words(
                      parts[static_cast<std::size_t>(id)].size() +
                      parts[static_cast<std::size_t>(orphan)].size() +
                      summary.size()));
          Message msg;
          msg.to = 0;
          msg.scalars.push_back(static_cast<double>(orphan));
          msg.payload = PointPayload(summary);
          outbox.push_back(std::move(msg));
        }
      });
      for (auto& msg : sim.inbox(0)) {
        if (msg.scalars.empty()) continue;
        const int orphan = static_cast<int>(msg.scalars[0]);
        if (orphan <= 0 || orphan >= m ||
            have[static_cast<std::size_t>(orphan)] != 0)
          continue;
        account_payload_truncation(faults, msg);
        out.shipments[static_cast<std::size_t>(orphan)] =
            msg.payload.unpack();
        have[static_cast<std::size_t>(orphan)] = 1;
        ++faults->stats().partitions_reassigned;
      }
      miss = missing();
    }
  }

  // Lemma 4: the union of the surviving coverings is still a valid
  // covering of the surviving points — the result degrades to a
  // (k, z + lost_weight) guarantee instead of failing.
  for (int i : miss) {
    faults->stats().lost_weight +=
        total_weight(parts[static_cast<std::size_t>(i)]);
    faults->stats().degraded = true;
  }
  return out;
}

}  // namespace kc::mpc
