#include "workload/streams.hpp"

#include <utility>

#include "util/check.hpp"

namespace kc {

DynamicScript make_dynamic_script(const std::vector<GridPoint>& final_set,
                                  std::size_t chaff, std::int64_t delta,
                                  int dim, std::uint64_t seed) {
  Rng rng(seed);
  // Chaff points, drawn uniformly from the universe.
  std::vector<GridPoint> extra;
  extra.reserve(chaff);
  for (std::size_t i = 0; i < chaff; ++i) {
    GridPoint g;
    g.dim = dim;
    for (int d = 0; d < dim; ++d)
      g.c[static_cast<std::size_t>(d)] =
          static_cast<std::int64_t>(rng.uniform(static_cast<std::uint64_t>(delta)));
    extra.push_back(g);
  }

  // Operations: insert(final) ∪ insert(chaff) ∪ delete(chaff).  Emit by
  // simulation so a delete can only follow its matching insert (strict
  // turnstile validity, even with duplicate chaff coordinates).
  std::vector<std::pair<GridPoint, bool>> inserts;  // (point, is_chaff)
  inserts.reserve(final_set.size() + chaff);
  for (const auto& g : final_set) inserts.emplace_back(g, false);
  for (const auto& g : extra) inserts.emplace_back(g, true);
  for (std::size_t i = inserts.size(); i > 1; --i)
    std::swap(inserts[i - 1], inserts[rng.uniform(i)]);

  DynamicScript script;
  script.reserve(final_set.size() + 2 * chaff);
  std::vector<GridPoint> alive_chaff;  // inserted but not yet deleted
  std::size_t next_insert = 0;
  while (next_insert < inserts.size() || !alive_chaff.empty()) {
    const bool can_insert = next_insert < inserts.size();
    const bool can_delete = !alive_chaff.empty();
    if (can_delete && (!can_insert || rng.bernoulli(0.4))) {
      const std::size_t pick = rng.uniform(alive_chaff.size());
      script.push_back({alive_chaff[pick], -1});
      std::swap(alive_chaff[pick], alive_chaff.back());
      alive_chaff.pop_back();
    } else {
      KC_DCHECK(can_insert);
      const auto& [g, is_chaff] = inserts[next_insert++];
      script.push_back({g, +1});
      if (is_chaff) alive_chaff.push_back(g);
    }
  }
  return script;
}

std::vector<std::size_t> shuffled_order(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.uniform(i)]);
  return order;
}

}  // namespace kc
