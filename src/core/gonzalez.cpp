#include "core/gonzalez.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>

#include "geometry/kernels.hpp"
#include "util/check.hpp"

namespace kc {

namespace {

// Called after each center with the traversal so far, which is then
// exactly `gonzalez(pts, #centers)` (prefix consistency, see the header).
using PrefixHook = std::function<void(const GonzalezResult&)>;

GonzalezResult traverse(const WeightedSet& pts, int max_centers,
                        const Metric& metric, ThreadPool* pool,
                        const kernels::PointBuffer* buffer,
                        const PrefixHook& on_prefix) {
  KC_EXPECTS(max_centers >= 1);
  if (pts.empty()) return {};
  const std::size_t n = pts.size();
  std::vector<double> key(n, std::numeric_limits<double>::infinity());
  kernels::PointBuffer local;
  const kernels::PointBuffer& buf = kernels::mirror_or_pack(pts, buffer, local);
  std::vector<double> scratch(n);

  // Each step relaxes every point's nearest-center key against the new
  // center and moves to the farthest point under the relaxed keys (first
  // max wins).
  return kernels::with_norm(metric.norm(), [&]<Norm N>() {
    GonzalezResult res;
    res.assignment.assign(n, 0);
    std::size_t next = 0;  // first center: index 0 (deterministic)
    for (int t = 0; t < max_centers && static_cast<std::size_t>(t) < n; ++t) {
      res.center_indices.push_back(next);
      const kernels::RelaxResult rr = kernels::relax_min_keys_parallel<N>(
          buf, pts[next].p.coords().data(), static_cast<std::uint32_t>(t),
          key.data(), res.assignment.data(), scratch.data(), pool);
      const double radius = metric.key_to_dist(rr.far_key);
      res.delta.push_back(radius);
      next = rr.far_idx;
      if (on_prefix) on_prefix(res);
      // kc-lint-allow(numerics): a max of exact distances is 0.0 only when
      // every remaining point coincides with a selected center.
      if (radius == 0.0) break;  // all points coincide with selected centers
    }
    return res;
  });
}

}  // namespace

GonzalezResult gonzalez(const WeightedSet& pts, int max_centers,
                        const Metric& metric, ThreadPool* pool,
                        const kernels::PointBuffer* buffer) {
  return traverse(pts, max_centers, metric, pool, buffer, {});
}

std::vector<GonzalezPrefix> gonzalez_prefixes(
    const WeightedSet& pts, std::span<const int> budgets, const Metric& metric,
    ThreadPool* pool, const kernels::PointBuffer* buffer) {
  std::vector<GonzalezPrefix> out(budgets.size());
  if (budgets.empty()) return out;
  // Checkpoint order: budgets ascending, ties in input order.
  std::vector<std::size_t> order(budgets.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return budgets[a] < budgets[b];
  });
  KC_EXPECTS(budgets[order.front()] >= 1);
  if (pts.empty()) return out;
  std::size_t done = 0;
  auto record = [&](const GonzalezResult& g) {
    while (done < order.size() &&
           static_cast<std::size_t>(budgets[order[done]]) <=
               g.center_indices.size())
      out[order[done++]] = {gonzalez_summary(pts, g), g.delta.back()};
  };
  const GonzalezResult g =
      traverse(pts, budgets[order.back()], metric, pool, buffer, record);
  // An early stop leaves the larger budgets at the final prefix.
  while (done < order.size())
    out[order[done++]] = {gonzalez_summary(pts, g), g.delta.back()};
  return out;
}

WeightedSet gonzalez_summary(const WeightedSet& pts, const GonzalezResult& g) {
  WeightedSet out;
  out.reserve(g.center_indices.size());
  for (auto idx : g.center_indices) out.push_back({pts[idx].p, 0});
  for (std::size_t i = 0; i < pts.size(); ++i)
    out[g.assignment[i]].w += pts[i].w;
  // Centers selected after the last full relaxation can end up with zero
  // assigned weight only if n < #centers, which gonzalez() prevents.
  for (const auto& wp : out) KC_ENSURES(wp.w > 0);
  return out;
}

}  // namespace kc
