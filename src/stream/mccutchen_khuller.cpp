#include "stream/mccutchen_khuller.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/charikar.hpp"
#include "core/cost.hpp"
#include "util/check.hpp"

namespace kc::stream {

double McCutchenKhuller::ladder_size(double eps) {
  return std::ceil(std::log(2.0) / std::log(1.0 + eps));
}

McCutchenKhuller::McCutchenKhuller(int k, std::int64_t z, double eps,
                                   const Metric& metric)
    : k_(k), z_(z), eps_(eps), metric_(metric) {
  KC_EXPECTS(k >= 1);
  KC_EXPECTS(z >= 0);
  KC_EXPECTS(eps > 0.0 && eps <= 1.0);
  KC_EXPECTS(ladder_size(eps) <= kMaxLadder);
  // Offsets (1+ε)^g, g = 0..L−1, with (1+ε)^L ≥ 2: the union of the offset
  // doubling ladders is (1+ε)-dense.
  for (double off = 1.0; off < 2.0; off *= 1.0 + eps) {
    Instance inst;
    inst.r = -off;  // negative encodes "warm-up with this offset"
    instances_.push_back(std::move(inst));
  }
}

void McCutchenKhuller::insert_into(Instance& inst, const Point& p,
                                   std::int64_t weight) {
  const double r = std::max(inst.r, 0.0);
  const double join = 2.0 * r;
  const double join_key = metric_.dist_to_key(join);
  for (auto& c : inst.clusters) {
    if (metric_.dist_key(p, c.anchor) <= join_key) {
      c.support.push_back({p, weight});
      while (c.support.size() > static_cast<std::size_t>(z_) + 1) {
        c.overflow += c.support.front().w;  // oldest member demoted to weight
        c.support.erase(c.support.begin());
      }
      return;
    }
  }
  Cluster fresh;
  fresh.anchor = p;
  fresh.support.push_back({p, weight});
  inst.clusters.push_back(std::move(fresh));
}

void McCutchenKhuller::maybe_double(Instance& inst) {
  // Pigeonhole: > k+z anchors pairwise > 2r means opt > r → double.
  while (inst.clusters.size() >
         static_cast<std::size_t>(k_) + static_cast<std::size_t>(z_)) {
    if (inst.r < 0.0) {
      // Warm-up ends: bootstrap from the minimum anchor distance.
      double min_key = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < inst.clusters.size(); ++i)
        for (std::size_t j = i + 1; j < inst.clusters.size(); ++j)
          min_key = std::min(min_key,
                             metric_.dist_key(inst.clusters[i].anchor,
                                              inst.clusters[j].anchor));
      const double delta = metric_.key_to_dist(min_key);
      const double offset = -inst.r;
      inst.r = std::max(delta / 2.0, 1e-300) * offset;
    } else {
      inst.r *= 2.0;
    }
    // Re-cluster everything stored at the new radius; overflow weights ride
    // on their anchor coordinates.
    std::vector<Cluster> old;
    old.swap(inst.clusters);
    for (const auto& c : old) {
      if (c.overflow > 0) insert_into(inst, c.anchor, c.overflow);
      for (const auto& wp : c.support) insert_into(inst, wp.p, wp.w);
    }
  }
}

void McCutchenKhuller::insert(const Point& p) {
  for (auto& inst : instances_) {
    insert_into(inst, p, 1);
    maybe_double(inst);
  }
  peak_ = std::max(peak_, stored_points());
}

std::size_t McCutchenKhuller::stored_points() const noexcept {
  std::size_t total = 0;
  for (const auto& inst : instances_)
    for (const auto& c : inst.clusters) total += 1 + c.support.size();
  return total;
}

WeightedSet McCutchenKhuller::stored_weighted(const Instance& inst) const {
  WeightedSet out;
  for (const auto& c : inst.clusters) {
    if (c.overflow > 0) out.push_back({c.anchor, c.overflow});
    for (const auto& wp : c.support) out.push_back(wp);
  }
  return out;
}

Solution McCutchenKhuller::query() const {
  Solution best;
  best.radius = std::numeric_limits<double>::infinity();
  for (const auto& inst : instances_) {
    const WeightedSet stored = stored_weighted(inst);
    if (stored.empty()) continue;
    const CharikarResult res = charikar_oracle(stored, k_, z_, metric_);
    const Solution sol = evaluate(stored, res.centers, z_, metric_);
    // Stored summary displaces true points by ≤ 2r (overflow demotion), so
    // account that slack when comparing instances.
    const double adjusted = sol.radius + 2.0 * std::max(inst.r, 0.0);
    if (adjusted < best.radius) {
      best.radius = adjusted;
      best.centers = sol.centers;
    }
  }
  if (!std::isfinite(best.radius)) best.radius = 0.0;
  return best;
}

}  // namespace kc::stream
