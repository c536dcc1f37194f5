#include "dynamic/dynamic_coreset.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace kc::dynamic {

namespace {

/// ⌈k(4√d/ε)^d⌉.  The 1e-9 guard keeps exact powers (e.g. (4√2)² = 32)
/// from rounding up.
double center_budget(int k, double eps, int dim) {
  const double per_center =
      std::pow(4.0 * std::sqrt(static_cast<double>(dim)) / eps, dim);
  return std::ceil(static_cast<double>(k) * per_center - 1e-9);
}

/// Top level of F(G_l)'s sampling ladder: it spans the cells of G_l
/// (≤ log2 of its universe size), not a generic 2^40 range.
int f0_max_level(const GridHierarchy& grids, int level) {
  int bits = 1;
  while ((std::uint64_t{1} << bits) < grids.universe_size(level)) ++bits;
  return bits + 1;
}

}  // namespace

double dynamic_sample_budget_real(int k, std::int64_t z, double eps,
                                  int dim) {
  return center_budget(k, eps, dim) + static_cast<double>(z);
}

std::int64_t dynamic_sample_budget(int k, std::int64_t z, double eps,
                                   int dim) {
  const double head = center_budget(k, eps, dim);
  // The negated test also rejects NaN.  Below the bound the cast is exact
  // and the int64 sum cannot overflow.
  KC_EXPECTS(!(head + static_cast<double>(z) >
               static_cast<double>(kMaxSampleBudget)));
  return static_cast<std::int64_t>(head) + z;
}

DynamicCoreset::DynamicCoreset(const DynamicCoresetOptions& opt)
    : opt_(opt),
      grids_(opt.delta, opt.dim),
      s_(dynamic_sample_budget(opt.k, opt.z, opt.eps, opt.dim)) {
  KC_EXPECTS(opt.k >= 1);
  KC_EXPECTS(opt.z >= 0);
  KC_EXPECTS(opt.eps > 0.0 && opt.eps <= 1.0);
  Rng rng(opt.seed);
  // One fingerprint point per grid level, shared by S(G_l) and F(G_l).  It
  // comes from a stream of its own, so the sketch seeds drawn from `rng`,
  // and with them every row and level hash, do not depend on it.
  Rng point_rng(splitmix64(opt.seed));
  for (int l = 0; l < grids_.levels(); ++l) {
    const std::uint64_t point = sketch::draw_point(point_rng);
    if (opt.deterministic_recovery) {
      det_recovery_.emplace_back(static_cast<std::size_t>(s_));
    } else {
      recovery_.emplace_back(static_cast<std::size_t>(s_), rng(), point);
    }
    f0_.emplace_back(opt.f0_eps, rng(), f0_max_level(grids_, l), point);
  }
}

void DynamicCoreset::add_cell(std::size_t level, std::uint64_t cell,
                              std::int64_t delta) {
  // The field work is done once per (level, cell): the embedded cell id x
  // and r_l^x feed S(G_l) and every level of F(G_l).
  const std::uint64_t x = sketch::embed_key(cell);
  const std::uint64_t d = sketch::signed_mod(delta);
  const std::uint64_t rx = sketch::pow_mod(f0_[level].point(), x);
  if (opt_.deterministic_recovery)
    det_recovery_[level].update(cell, delta);
  else
    recovery_[level].add(x, delta, d, rx);
  f0_[level].add(x, delta, d, rx);
}

void DynamicCoreset::update(const GridPoint& p, int sign) {
  KC_EXPECTS(sign == +1 || sign == -1);
  KC_EXPECTS(p.dim == opt_.dim);
  live_ += sign;
  KC_EXPECTS(live_ >= 0);  // strict turnstile
  for (int l = 0; l < grids_.levels(); ++l)
    add_cell(static_cast<std::size_t>(l), grids_.cell_id(p, l), sign);
}

void DynamicCoreset::update_batch(std::span<const GridUpdate> ups) {
  if (scratch_.capacity() < kBatchChunk) scratch_.reserve(kBatchChunk);
  for (std::size_t at = 0; at < ups.size(); at += kBatchChunk)
    apply_chunk(ups.subspan(at, std::min(kBatchChunk, ups.size() - at)));
}

void DynamicCoreset::apply_chunk(std::span<const GridUpdate> chunk) {
  // Packed key: axis 0 in the most significant of d fields of `bits` bits
  // each, holding the cell coordinate c >> l at level l.
  const int bits = grids_.levels() - 1;
  const std::uint64_t field = (std::uint64_t{1} << bits) - 1;
  std::uint64_t keep = 0;  // every field but its top bit
  for (int i = 0; i < opt_.dim; ++i) keep = (keep << bits) | (field >> 1);

  scratch_.clear();
  for (const GridUpdate& up : chunk) {
    KC_EXPECTS(up.sign == +1 || up.sign == -1);
    KC_EXPECTS(up.p.dim == opt_.dim);
    live_ += up.sign;
    KC_EXPECTS(live_ >= 0);  // strict turnstile, on every prefix
    std::uint64_t key = 0;
    for (int i = 0; i < opt_.dim; ++i) {
      const std::int64_t c = up.p.c[static_cast<std::size_t>(i)];
      KC_EXPECTS(c >= 0 && c < grids_.delta());
      key = (key << bits) | static_cast<std::uint64_t>(c);
    }
    scratch_.push_back({key, up.sign});
  }

  for (int l = 0; l < grids_.levels() && !scratch_.empty(); ++l) {
    if (l > 0) {
      // One bit right per field: c >> l from c >> (l−1).  The mask drops
      // the bit each field took from the low end of the field above it.
      for (CellSum& e : scratch_) e.key = (e.key >> 1) & keep;
    }
    std::sort(scratch_.begin(), scratch_.end(),
              [](const CellSum& a, const CellSum& b) { return a.key < b.key; });
    std::size_t out = 0;
    for (std::size_t i = 0; i < scratch_.size();) {
      CellSum run = scratch_[i];
      for (++i; i < scratch_.size() && scratch_[i].key == run.key; ++i)
        run.sum += scratch_[i].sum;
      if (run.sum != 0) scratch_[out++] = run;
    }
    scratch_.resize(out);

    const auto per_axis = static_cast<std::uint64_t>(grids_.cells_per_axis(l));
    for (const CellSum& e : scratch_) {
      std::uint64_t cell = 0;  // GridHierarchy::cell_id's mixed-radix id
      for (int j = 0; j < opt_.dim; ++j)
        cell = cell * per_axis +
               ((e.key >> (bits * (opt_.dim - 1 - j))) & field);
      add_cell(static_cast<std::size_t>(l), cell, e.sum);
    }
  }
}

std::optional<std::vector<std::pair<std::uint64_t, std::int64_t>>>
DynamicCoreset::recover_level(int level) const {
  std::vector<std::pair<std::uint64_t, std::int64_t>> cells;
  if (opt_.deterministic_recovery) {
    const auto dec = det_recovery_[static_cast<std::size_t>(level)].decode(
        grids_.universe_size(level));
    if (!dec) return std::nullopt;
    for (const auto& item : *dec) cells.emplace_back(item.key, item.count);
  } else {
    const auto dec = recovery_[static_cast<std::size_t>(level)].decode();
    if (!dec.complete) return std::nullopt;
    for (const auto& item : dec.items) cells.emplace_back(item.key, item.count);
  }
  return cells;
}

DynamicCoreset::QueryResult DynamicCoreset::query() const {
  QueryResult res;
  if (live_ == 0) {
    res.ok = true;
    res.level = grids_.levels() - 1;
    return res;
  }
  for (int l = 0; l < grids_.levels(); ++l) {
    // Fast filter via the F0 estimate, then attempt full recovery; if the
    // estimate was optimistic the recovery fails and we move one level up.
    const double est = f0_[static_cast<std::size_t>(l)].estimate();
    if (est < 0 ||
        est > static_cast<double>(s_) * (1.0 + opt_.f0_eps)) {
      continue;
    }
    const auto cells = recover_level(l);
    if (!cells) continue;
    res.coreset.reserve(cells->size());
    std::int64_t total = 0;
    for (const auto& [cell, count] : *cells) {
      KC_ENSURES(count > 0);
      res.coreset.push_back({grids_.cell_center(cell, l), count});
      total += count;
    }
    KC_ENSURES(total == live_);
    res.level = l;
    res.nonempty_cells = cells->size();
    res.cell_side = static_cast<double>(grids_.cell_side(l));
    res.ok = true;
    return res;
  }
  return res;  // ok = false: no level decodable (should not happen)
}

double DynamicCoreset::predicted_words(const DynamicCoresetOptions& opt) {
  const GridHierarchy grids(opt.delta, opt.dim);
  const double s = std::max(
      dynamic_sample_budget_real(opt.k, opt.z, opt.eps, opt.dim), 1.0);
  // SparseRecovery(c): kRows rows of max(2c, 8) cells, 8 hash words per row
  // and 4 header words; PowerSumSketch(c): 2c; F0Estimator: 8 hash words
  // and max_level + 1 level sketches of capacity max(16, ⌈16/ε²⌉).
  const auto recovery = [](double c) {
    constexpr auto kRows = static_cast<double>(sketch::SparseRecovery::kRows);
    return kRows * (std::max(2.0 * c, 8.0) * sketch::OneSparseCell::words() +
                    8.0) + 4.0;
  };
  const double s0 =
      std::max(16.0, std::ceil(16.0 / (opt.f0_eps * opt.f0_eps)));
  double total = 0.0;
  for (int l = 0; l < grids.levels(); ++l)
    total += (opt.deterministic_recovery ? 2.0 * s : recovery(s)) + 8.0 +
             (f0_max_level(grids, l) + 1) * recovery(s0);
  return total;
}

std::size_t DynamicCoreset::words() const {
  std::size_t total = 0;
  for (const auto& r : recovery_) total += r.words();
  for (const auto& r : det_recovery_) total += r.words();
  for (const auto& f : f0_) total += f.words();
  return total;
}

}  // namespace kc::dynamic
