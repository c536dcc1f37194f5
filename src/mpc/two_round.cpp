#include "mpc/two_round.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "core/coreset.hpp"
#include "core/mbc.hpp"
#include "core/radius_oracle.hpp"
#include "util/check.hpp"

namespace kc::mpc {

namespace {

// J = ⌈log2(z+1)⌉ — the index of the last outlier guess 2^J − 1 ≥ z; valid
// guesses are j = 0..J.
int guess_levels(std::int64_t z) {
  return std::bit_width(static_cast<std::uint64_t>(z));
}

// The r̂ rule of Round 2.  `tables[ℓ][j]` = V_ℓ[j].  Returns the smallest
// r among all table entries such that every machine has some V_ℓ[j] ≤ r and
// Σ_ℓ (2^{min{j : V_ℓ[j] ≤ r}} − 1) ≤ 2z.  The sum is non-increasing in r,
// so we binary-search the sorted candidate set.  Empty tables (machines
// that are dead or whose broadcast was lost to fault injection) are
// skipped: the rule is evaluated over the tables this machine actually
// holds — still a well-defined threshold, though the global Σ ≤ 2z
// certificate is then no longer certified (the caller flags degradation).
double compute_r_hat(const std::vector<std::vector<double>>& tables,
                     std::int64_t z) {
  std::vector<double> candidates;
  for (const auto& t : tables)
    candidates.insert(candidates.end(), t.begin(), t.end());
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  KC_EXPECTS(!candidates.empty());

  auto qualifies = [&](double r) {
    std::int64_t sum = 0;
    for (const auto& t : tables) {
      if (t.empty()) continue;  // unknown table: not this machine's problem
      int jmin = -1;
      for (std::size_t j = 0; j < t.size(); ++j) {
        if (t[j] <= r) {
          jmin = static_cast<int>(j);
          break;
        }
      }
      if (jmin < 0) return false;  // this machine has no valid guess at r
      sum += (std::int64_t{1} << jmin) - 1;
      if (sum > 2 * z) return false;
    }
    return sum <= 2 * z;
  };

  // Predicate is monotone (false … false true … true) over the sorted
  // candidates; find the first true.
  std::size_t lo = 0, hi = candidates.size() - 1;
  KC_EXPECTS(qualifies(candidates[hi]));  // r = max entry always qualifies
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (qualifies(candidates[mid]))
      hi = mid;
    else
      lo = mid + 1;
  }
  return candidates[lo];
}

// A Round-2 shipment: the covering and the guess ĵ it was built at (−1 when
// no guess qualified and nothing was built).
struct Shipment {
  int j_hat = -1;
  WeightedSet reps;
};

}  // namespace

double round1_broadcast_bytes(int machines, std::int64_t z) {
  const double m = machines;
  const double scalars = 2.0 * (guess_levels(z) + 1);  // V_i and ρ_i
  return m * (m - 1.0) *
         (static_cast<double>(sizeof(Message)) + scalars * sizeof(double));
}

TwoRoundResult two_round_coreset(const std::vector<WeightedSet>& parts, int k,
                                 std::int64_t z, const Metric& metric,
                                 const ExecContext& ctx,
                                 const TwoRoundOptions& opt) {
  KC_EXPECTS(!parts.empty());
  KC_EXPECTS(z >= 0);
  const int m = static_cast<int>(parts.size());
  Simulator sim(m, parts_dim(parts), ctx);
  const int levels = guess_levels(z) + 1;  // j = 0..J inclusive

  // Per-machine state living across rounds.
  std::vector<std::vector<double>> v_table(static_cast<std::size_t>(m));
  std::vector<std::vector<double>> rho_table(static_cast<std::size_t>(m));
  std::vector<double> r_hat_seen(static_cast<std::size_t>(m), 0.0);
  std::vector<double> rho_max_seen(static_cast<std::size_t>(m), 1.0);
  std::vector<std::int64_t> guess_of(static_cast<std::size_t>(m), 0);

  // ---- Round 1: compute V_i and broadcast. ----------------------------
  std::vector<std::int64_t> guesses(static_cast<std::size_t>(levels));
  for (int j = 0; j < levels; ++j)
    guesses[static_cast<std::size_t>(j)] = (std::int64_t{1} << j) - 1;
  FaultStats& fs = sim.faults().stats();
  const auto losses = [&] { return fs.messages_lost + fs.machines_lost; };
  const int losses_before = losses();
  sim.round([&](int id, std::vector<Message>& /*inbox*/,
                std::vector<Message>& outbox) {
    const auto uid = static_cast<std::size_t>(id);
    const WeightedSet& mine = parts[uid];
    sim.record_storage(id, sim.point_words(mine.size()));

    const std::vector<RadiusEstimate> ests =
        estimate_radius_ladder(mine, k, guesses, metric);
    auto& V = v_table[uid];
    auto& R = rho_table[uid];
    V.resize(ests.size());
    R.resize(ests.size());
    for (std::size_t j = 0; j < ests.size(); ++j) {
      V[j] = ests[j].radius;
      R[j] = ests[j].rho;
    }
    Message msg;
    msg.scalars = V;
    msg.scalars.insert(msg.scalars.end(), R.begin(), R.end());
    for (int to = 0; to < m; ++to) {
      if (to == id) continue;
      Message copy = msg;
      copy.to = to;
      outbox.push_back(std::move(copy));
    }
  });
  // A lost broadcast (or a machine dead before broadcasting) means the
  // machines no longer share one table set: each still computes a valid
  // covering from what it holds, but the Σ ≤ 2z size certificate of
  // Theorem 10 is gone — the run must report the degraded bound.
  if (losses() > losses_before) fs.degraded = true;

  // ---- Round 2: agree on r̂, build local coverings, ship them. --------
  // The shipment rule, for a machine's own shipment and an adopter's
  // rebuild of it alike: ĵ = min{j : V[j] ≤ r̂}, covered by
  // MBCConstruction(P, k, 2^ĵ−1, ε) reusing the Round-1 radius — mini-balls
  // of radius ε·V[ĵ]/ρ ≤ ε·r̂/ρ ≤ ε·opt (Lemma 9).
  const auto ship = [&](int machine, double r_hat, double rho_max) {
    const auto ui = static_cast<std::size_t>(machine);
    const std::vector<double>& V = v_table[ui];
    Shipment out;
    for (std::size_t j = 0; j < V.size(); ++j)
      if (V[j] <= r_hat) {
        out.j_hat = static_cast<int>(j);
        out.reps =
            mbc_with_radius(parts[ui], opt.eps * V[j] / rho_max, metric).reps;
        break;
      }
    return out;
  };
  const auto summarize = [&](int id, const std::vector<Message>& inbox) {
    const auto uid = static_cast<std::size_t>(id);
    const WeightedSet& mine = parts[uid];

    // Reassemble all tables (own + received) — with full delivery every
    // machine sees the same set and computes the same r̂ deterministically.
    std::vector<std::vector<double>> all_v(static_cast<std::size_t>(m));
    double rho_max = 1.0;
    all_v[uid] = v_table[uid];
    for (double r : rho_table[uid]) rho_max = std::max(rho_max, r);
    for (const auto& msg : inbox) {
      const auto from = static_cast<std::size_t>(msg.from);
      const auto half = msg.scalars.size() / 2;
      all_v[from].assign(msg.scalars.begin(),
                         msg.scalars.begin() + static_cast<std::ptrdiff_t>(half));
      for (std::size_t i = half; i < msg.scalars.size(); ++i)
        rho_max = std::max(rho_max, msg.scalars[i]);
    }

    const double r_hat = compute_r_hat(all_v, z);
    r_hat_seen[uid] = r_hat;
    rho_max_seen[uid] = rho_max;

    Shipment s = ship(id, r_hat, rho_max);
    KC_ENSURES(s.j_hat >= 0);  // ĵ exists by construction of r̂
    guess_of[uid] = (std::int64_t{1} << s.j_hat) - 1;
    // Storage at this moment: own points, the covering and m radius tables.
    sim.record_storage(
        id, sim.point_words(mine.size() + s.reps.size()) +
                static_cast<std::size_t>(m) * 2 * static_cast<std::size_t>(levels));
    return std::move(s.reps);
  };

  // Missing shipments (dead machines, lost messages) are recovered per the
  // injector's policy.  The rebuild re-runs the machine's shipment rule on
  // its durable partition and the coordinator's table view; a machine with
  // no qualifying guess (its V table never existed: dead in round 1) falls
  // back to the always-valid full-z local covering.
  const auto rebuild = [&](int machine) -> WeightedSet {
    Shipment s = ship(machine, r_hat_seen[0], rho_max_seen[0]);
    if (s.j_hat >= 0) return std::move(s.reps);
    return mbc_construct(parts[static_cast<std::size_t>(machine)], k, z,
                         opt.eps, metric)
        .reps;
  };
  const std::vector<WeightedSet> shipments =
      fan_in(sim, parts, m, m, summarize, rebuild);

  // ---- Coordinator: merge and recompress. ------------------------------
  TwoRoundResult result;
  static_cast<Coordinated&>(result) =
      coordinate(sim, parts[0].size(), shipments, k, z, opt.eps, metric);
  result.eps_effective = compose_eps(opt.eps, opt.eps);
  result.r_hat = r_hat_seen[0];
  for (auto g : guess_of) result.sum_outlier_guesses += g;
  result.stats = sim.stats();
  return result;
}

}  // namespace kc::mpc
