#include "stream/sliding_window.hpp"

#include <algorithm>

#include "geometry/kernels.hpp"
#include "stream/insertion_only.hpp"
#include "util/check.hpp"

namespace kc::stream {

SlidingWindow::SlidingWindow(int k, std::int64_t z, double eps, int dim,
                             std::int64_t window, double r_min, double r_max,
                             const Metric& metric)
    : k_(k), z_(z), eps_(eps), window_(window), metric_(metric) {
  KC_EXPECTS(k >= 1);
  KC_EXPECTS(z >= 0);
  KC_EXPECTS(eps > 0.0 && eps <= 1.0);
  KC_EXPECTS(window >= 1);
  KC_EXPECTS(r_min > 0.0 && r_max >= r_min);
  cap_ = stream_threshold(k, z, eps, dim, ThresholdPolicy::Ours);
  for (double guess = r_min; guess <= 2.0 * r_max; guess *= 2.0) {
    Level lvl;
    lvl.guess = guess;
    lvl.radius = eps * guess;
    levels_.push_back(std::move(lvl));
  }
}

void SlidingWindow::insert(const Point& p, std::int64_t t) {
  kernels::with_norm(metric_.norm(), [&]<Norm N>() { insert_with<N>(p, t); });
}

template <Norm N>
void SlidingWindow::insert_with(const Point& p, std::int64_t t) {
  const std::size_t slots = static_cast<std::size_t>(z_) + 1;
  const double* q = p.coords().data();
  const int dim = p.dim();
  const std::int64_t horizon = t - window_;  // expired ⇔ last_join ≤ horizon
  // One cluster's stored records: its representative plus its members.
  const auto records = [](const MiniCluster& c) { return 1 + c.recent.size(); };
  for (auto& lvl : levels_) {
    const double key = kernels::dist_to_key(N, lvl.radius);
    bool placed = false;
    for (auto& c : lvl.clusters) {
      if (kernels::raw_key<N>(q, c.rep.coords().data(), dim) <= key) {
        // The ring grows to z+1 slots, then overwrites its oldest.
        if (c.recent.size() < slots) {
          c.recent.push_back({p, t});
          ++records_;
        } else {
          c.recent[c.head] = {p, t};
          if (++c.head == slots) c.head = 0;
        }
        c.last_join = t;
        placed = true;
        break;
      }
    }
    if (!placed) {
      MiniCluster fresh;
      fresh.rep = p;
      fresh.recent.push_back({p, t});
      fresh.last_join = t;
      lvl.clusters.push_back(std::move(fresh));
      records_ += 2;
    }
    // Drop clusters whose every stored member expired — they cannot matter
    // for any current or future window.  While the level's oldest last
    // join is alive nothing can expire, so the sweep runs only once it is
    // not, and leaves the bound at the oldest survivor's last join.
    if (lvl.oldest_join <= horizon) {
      lvl.oldest_join = t;
      std::erase_if(lvl.clusters, [&](const MiniCluster& c) {
        if (c.last_join > horizon) {
          lvl.oldest_join = std::min(lvl.oldest_join, c.last_join);
          return false;
        }
        records_ -= records(c);
        return true;
      });
    }
    // Capacity: evict the stalest cluster and mark the level unsafe until
    // the evicted cluster's members have all left the window.
    while (lvl.clusters.size() > cap_) {
      auto stalest = std::min_element(
          lvl.clusters.begin(), lvl.clusters.end(),
          [](const MiniCluster& a, const MiniCluster& b) {
            return a.last_join < b.last_join;
          });
      lvl.unsafe_until =
          std::max(lvl.unsafe_until, stalest->last_join + window_);
      records_ -= records(*stalest);
      lvl.clusters.erase(stalest);
    }
  }
  peak_ = std::max(peak_, records_);
}

SlidingWindow::QueryResult SlidingWindow::query(std::int64_t now) const {
  const std::int64_t horizon = now - window_;  // alive ⇔ t > horizon
  for (std::size_t li = 0; li < levels_.size(); ++li) {
    const Level& lvl = levels_[li];
    if (lvl.unsafe_until > now) continue;

    WeightedSet coreset;
    bool ok = true;
    for (const auto& c : lvl.clusters) {
      // Alive members among the stored most-recent z+1.
      std::int64_t alive = 0;
      const Member* newest_alive = nullptr;
      // Oldest first: the ring's oldest slot is `head`.
      for (std::size_t i = 0; i < c.recent.size(); ++i) {
        const Member& m = c.recent[(c.head + i) % c.recent.size()];
        if (m.t > horizon) {
          ++alive;
          newest_alive = &m;
        }
      }
      if (alive == 0) continue;
      // If every stored member is alive the true count may exceed z+1;
      // clamp — outlier budgets never need more.
      const bool saturated =
          c.recent.size() == static_cast<std::size_t>(z_) + 1 &&
          static_cast<std::size_t>(alive) == c.recent.size();
      const std::int64_t w = saturated ? z_ + 1 : alive;
      // Re-anchor on an alive member so the coreset is a subset of the
      // window (costs ≤ 2·radius of covering slack).
      coreset.push_back({newest_alive->p, std::max<std::int64_t>(w, 1)});
      if (coreset.size() > cap_) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;

    QueryResult res;
    res.coreset = std::move(coreset);
    res.level = static_cast<int>(li);
    res.guess = lvl.guess;
    res.cover_radius = 2.0 * lvl.radius;
    return res;
  }
  return {};
}

}  // namespace kc::stream
