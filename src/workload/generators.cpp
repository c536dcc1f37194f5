#include "workload/generators.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

#include "geometry/box.hpp"
#include "geometry/kernels.hpp"
#include "util/check.hpp"

namespace kc {

namespace {

// Draws u uniformly from the unit ball of `norm` into out[0, dim), by
// rejection from the cube [−1, 1]^dim (it accepts often at the small
// dimensions we target; see the table in generators.hpp).
void draw_in_unit_ball(Rng& rng, int dim, Norm norm, double* out) {
  static constexpr double kOrigin[Point::kMaxDim] = {};
  for (;;) {
    for (int j = 0; j < dim; ++j) out[j] = rng.uniform_real(-1.0, 1.0);
    if (kernels::dist(norm, out, kOrigin, dim) <= 1.0) return;
  }
}

// Draws a point uniformly from the ball of radius r around `center` into
// out[0, dim): out[j] = center[j] + u[j]·r.
void draw_in_ball(Rng& rng, int dim, Norm norm, const double* center,
                  double r, double* out) {
  draw_in_unit_ball(rng, dim, norm, out);
  for (int j = 0; j < dim; ++j) out[j] = center[j] + out[j] * r;
}

// Cluster-center lattice: place k centers on a coarse integer lattice scaled
// by `spacing`, guaranteeing pairwise distance ≥ spacing in every norm.
PointSet lattice_centers(int k, int dim, double spacing) {
  const int per_axis = static_cast<int>(
      std::ceil(std::pow(static_cast<double>(k), 1.0 / dim)));
  PointSet out;
  out.reserve(static_cast<std::size_t>(k));
  std::vector<int> idx(static_cast<std::size_t>(dim), 0);
  while (static_cast<int>(out.size()) < k) {
    Point c(dim);
    for (int i = 0; i < dim; ++i)
      c[i] = spacing * static_cast<double>(idx[static_cast<std::size_t>(i)]);
    out.push_back(c);
    // increment mixed-radix counter
    for (int i = 0; i < dim; ++i) {
      if (++idx[static_cast<std::size_t>(i)] < per_axis) break;
      idx[static_cast<std::size_t>(i)] = 0;
      KC_EXPECTS(i + 1 < dim || static_cast<int>(out.size()) >= k);
    }
  }
  return out;
}

// Row-major staging for the draw: row i is coordinates [i·dim, (i+1)·dim)
// of one flat array, so a point costs dim doubles and no `Point`.
class Rows {
 public:
  Rows(std::size_t n, int dim)
      : dim_(static_cast<std::size_t>(dim)),
        data_(std::make_unique_for_overwrite<double[]>(n * dim_)) {}
  [[nodiscard]] double* operator[](std::size_t i) noexcept {
    return data_.get() + i * dim_;
  }
  [[nodiscard]] const double* operator[](std::size_t i) const noexcept {
    return data_.get() + i * dim_;
  }
  void release() noexcept { data_.reset(); }

 private:
  std::size_t dim_;
  std::unique_ptr<double[]> data_;  // every row is written before it is read
};

// Certified diameter lower bound of rows [first, first + count): double
// farthest-point probe.
double diameter_lb(const Rows& rows, std::size_t first, std::size_t count,
                   int dim, Norm norm) {
  if (count < 2) return 0.0;
  std::size_t a = first;
  double best = -1.0;
  for (std::size_t i = first + 1; i < first + count; ++i) {
    const double d = kernels::dist(norm, rows[first], rows[i], dim);
    if (d > best) {
      best = d;
      a = i;
    }
  }
  double diam = best;
  for (std::size_t i = first; i < first + count; ++i)
    diam = std::max(diam, kernels::dist(norm, rows[a], rows[i], dim));
  return diam;
}

}  // namespace

PlantedInstance make_planted(const PlantedConfig& cfg) {
  KC_EXPECTS(cfg.k >= 1);
  KC_EXPECTS(cfg.z >= 0);
  KC_EXPECTS(cfg.dim >= 1 && cfg.dim <= Point::kMaxDim);
  KC_EXPECTS(std::isfinite(cfg.cluster_radius) && cfg.cluster_radius > 0.0);
  KC_EXPECTS(std::isfinite(cfg.separation));
  KC_EXPECTS(cfg.separation >= 20.0);
  KC_EXPECTS(cfg.duplicates >= 1);
  const auto z = static_cast<std::size_t>(cfg.z);
  KC_EXPECTS(cfg.n >= static_cast<std::size_t>(cfg.k) * (z + 1) + z);
  // The shuffle permutes 4-byte row indices.
  KC_EXPECTS(cfg.n <= std::numeric_limits<std::uint32_t>::max());

  PlantedInstance inst;
  inst.config = cfg;
  Rng rng(cfg.seed);
  const double spacing = cfg.separation * cfg.cluster_radius;

  inst.planted_centers = lattice_centers(cfg.k, cfg.dim, spacing);

  // Split the n - z cluster points over the k clusters.  skew = 0 gives an
  // even split; skew → 1 concentrates mass in the first cluster while every
  // cluster keeps its mandatory z+1 points.
  const std::size_t cluster_total = cfg.n - z;
  std::vector<std::size_t> sizes(static_cast<std::size_t>(cfg.k), z + 1);
  std::size_t assigned = static_cast<std::size_t>(cfg.k) * (z + 1);
  KC_EXPECTS(assigned <= cluster_total);
  std::size_t remaining = cluster_total - assigned;
  if (!cfg.cluster_sizes.empty()) {
    // Explicit split (heavy-tailed adversarial workloads plant it exactly).
    KC_EXPECTS(cfg.cluster_sizes.size() == static_cast<std::size_t>(cfg.k));
    std::size_t sum = 0;
    for (std::size_t s : cfg.cluster_sizes) {
      KC_EXPECTS(s >= z + 1);
      sum += s;
    }
    KC_EXPECTS(sum == cluster_total);
    sizes = cfg.cluster_sizes;
    remaining = 0;
  } else if (cfg.skew <= 0.0) {
    for (std::size_t i = 0; remaining > 0; i = (i + 1) % sizes.size()) {
      ++sizes[i];
      --remaining;
    }
  } else {
    // Geometric decay of the remainder across clusters.
    double weight = 1.0;
    std::vector<double> ws(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      ws[i] = weight;
      weight *= (1.0 - cfg.skew);
    }
    double wsum = 0.0;
    for (double w : ws) wsum += w;
    std::size_t given = 0;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const auto extra =
          static_cast<std::size_t>(std::floor(static_cast<double>(remaining) * ws[i] / wsum));
      sizes[i] += extra;
      given += extra;
    }
    for (std::size_t i = 0; given < remaining; i = (i + 1) % sizes.size()) {
      ++sizes[i];
      ++given;
    }
  }

  // Every point is drawn into one row of `rows` — clusters in order, then
  // the outliers — and each cluster is certified as soon as it is drawn.
  const int dim = cfg.dim;
  const double R = cfg.cluster_radius;
  const std::size_t dups = cfg.duplicates;
  Rows rows(cfg.n, dim);
  std::size_t first = 0;  // the cluster's first row
  double hi = 0.0, lo = 0.0;
  for (int c = 0; c < cfg.k; ++c) {
    const double* center =
        inst.planted_centers[static_cast<std::size_t>(c)].coords().data();
    const std::size_t size = sizes[static_cast<std::size_t>(c)];
    // Near-duplicate flood: ⌈size/duplicates⌉ distinct samples, each
    // replicated with jitter ≤ 1e-9·R (stress for dedup-hostile summaries).
    // Base b goes to the row of its first copy, first + b·duplicates; all
    // bases are drawn before any jitter.
    const std::size_t distinct = (size + dups - 1) / dups;
    for (std::size_t b = 0; b < distinct; ++b)
      draw_in_ball(rng, dim, cfg.norm, center, R, rows[first + b * dups]);
    for (std::size_t i = 0; dups > 1 && i < size; ++i) {
      if (i % dups == 0) continue;
      const double* base = rows[first + (i / dups) * dups];
      double* p = rows[first + i];
      for (int j = 0; j < dim; ++j)
        p[j] = base[j] + rng.uniform_real(-1e-9, 1e-9) * R;
    }
    // Certify the bracket on this cluster.
    for (std::size_t i = first; i < first + size; ++i)
      hi = std::max(hi, kernels::dist(cfg.norm, rows[i], center, dim));
    lo = std::max(lo, diameter_lb(rows, first, size, dim, cfg.norm) / 2.0);
    first += size;
  }
  const std::size_t cluster_points = first;

  // Outliers.  Spread: far along the negative first axis, pairwise
  // ≥ spacing apart.  Burst: one tight clump of diameter ≤ 2R at
  // −2·spacing — any ball covering the clump strands a ≥ z+1 cluster, so
  // the bracket certificate above still holds.
  for (std::size_t i = 0; i < z; ++i) {
    double* o = rows[cluster_points + i];
    if (cfg.outliers == OutlierPattern::Burst) {
      draw_in_unit_ball(rng, dim, cfg.norm, o);
      for (int j = 0; j < dim; ++j) o[j] *= R;
      o[0] -= 2.0 * spacing;
    } else {
      o[0] = -spacing * (2.0 + static_cast<double>(i));
      // jitter the remaining axes slightly so outliers are not collinear
      for (int j = 1; j < dim; ++j) o[j] = rng.uniform_real(0.0, R);
    }
  }

  // Interleave clusters and outliers: Fisher–Yates with our deterministic
  // rng over row indices, so position i holds row perm[i], an outlier iff
  // perm[i] ≥ cluster_points.  The buffer is gathered in that order, the
  // staging freed, and the AoS points filled from the buffer.
  std::vector<std::uint32_t> perm(cfg.n);
  std::iota(perm.begin(), perm.end(), std::uint32_t{0});
  for (std::size_t i = cfg.n; i > 1; --i)
    std::swap(perm[i - 1], perm[rng.uniform(i)]);
  inst.buffer = kernels::PointBuffer(dim);
  inst.buffer.reserve(cfg.n);
  for (std::size_t i = 0; i < cfg.n; ++i) {
    inst.buffer.append(rows[perm[i]]);
    if (perm[i] >= cluster_points) inst.outlier_indices.push_back(i);
  }
  rows.release();
  perm = std::vector<std::uint32_t>();
  inst.points.reserve(cfg.n);
  for (std::size_t i = 0; i < cfg.n; ++i)
    inst.points.push_back({inst.buffer.point(i), 1});
  inst.opt_hi = hi;
  inst.opt_lo = lo;
  KC_ENSURES(inst.opt_lo <= inst.opt_hi * (1.0 + 1e-12));
  // Bracket validity regime: opt_hi must be well below half the separation.
  KC_ENSURES(inst.opt_hi < spacing / 4.0);
  return inst;
}

PlantedInstance make_drifting(const PlantedConfig& cfg) {
  KC_EXPECTS(cfg.k >= 1);
  KC_EXPECTS(cfg.z >= 0);
  KC_EXPECTS(cfg.dim >= 1 && cfg.dim <= Point::kMaxDim);
  KC_EXPECTS(std::isfinite(cfg.cluster_radius) && cfg.cluster_radius > 0.0);
  KC_EXPECTS(cfg.separation >= 20.0);
  const auto z = static_cast<std::size_t>(cfg.z);
  KC_EXPECTS(cfg.n >= static_cast<std::size_t>(cfg.k) * (z + 1) + z);

  PlantedInstance inst;
  inst.config = cfg;
  Rng rng(cfg.seed);
  const int dim = cfg.dim;
  const double R = cfg.cluster_radius;
  const double spacing = cfg.separation * R;

  // Planted centers = drift midpoints on the usual lattice.
  inst.planted_centers = lattice_centers(cfg.k, dim, spacing);
  const auto center = [&](std::size_t c) {
    return inst.planted_centers[c].coords().data();
  };

  // Even split of the n − z cluster points, emitted round-robin (emission
  // u belongs to cluster u mod k), which keeps the per-cluster drift
  // progress aligned with stream time.  Stream layout, no shuffle: outlier
  // i surfaces at position (i+1)·n/(z+1) − 1 (evenly interspersed,
  // deterministic) and every other position holds the next emission.
  // `for_each_emission(f)` replays that schedule, calling f(c, t) when
  // cluster c emits the point at stream position t — so the certificate
  // below revisits a cluster's members where they lie instead of keeping a
  // copy of each cluster.
  const std::size_t cluster_total = cfg.n - z;
  const auto k = static_cast<std::size_t>(cfg.k);
  const auto outlier_pos = [&](std::size_t i) {
    return ((i + 1) * cfg.n) / (z + 1) - 1;
  };
  // `skip` is the position of the next outlier (n once all are placed),
  // so an emission costs no division.
  const auto for_each_emission = [&](auto&& f) {
    std::size_t next_outlier = 0;
    std::size_t skip = z > 0 ? outlier_pos(0) : cfg.n;
    std::size_t c = 0;  // u mod k
    for (std::size_t u = 0, t = 0; u < cluster_total; ++u, ++t) {
      for (; t == skip; ++t)
        skip = ++next_outlier < z ? outlier_pos(next_outlier) : cfg.n;
      f(c, t);
      if (++c == k) c = 0;
    }
  };

  // Cluster emissions, drawn straight into the points of their stream
  // positions.  At stream progress λ ∈ [0, 1] cluster c emits around
  // anchor + (2λ − 1)·2R along its drift axis: the emission center sweeps
  // 4R end to end, so every member is within 2R + R = 3R of the anchor and
  // the standard certificate (separation 40R ≫ 4·3R) holds.  The
  // certificate is make_planted's, taken in emission order: the farthest
  // member from the anchor, and `diameter_lb`'s double farthest-point probe
  // — the first probe (from the cluster's first member, first maximum
  // kept) runs while the points are drawn, the second in one more pass
  // over the schedule.
  inst.points.assign(cfg.n, {Point(dim), 1});
  const auto row = [&](std::size_t t) { return &inst.points[t].p[0]; };
  std::vector<std::size_t> first(k, cfg.n);  // position of the first member
  std::vector<std::size_t> far_from_first(k, 0);
  std::vector<double> diam(k, -1.0);
  double hi = 0.0;
  std::size_t u = 0;
  for_each_emission([&](std::size_t c, std::size_t t) {
    const double lambda =
        cluster_total > 1
            ? static_cast<double>(u) / static_cast<double>(cluster_total - 1)
            : 0.5;
    ++u;
    double* p = row(t);
    draw_in_ball(rng, dim, cfg.norm, center(c), R, p);
    p[static_cast<int>(c) % dim] += (2.0 * lambda - 1.0) * 2.0 * R;
    hi = std::max(hi, kernels::dist(cfg.norm, p, center(c), dim));
    if (first[c] == cfg.n) {
      first[c] = far_from_first[c] = t;
    } else if (const double d = kernels::dist(cfg.norm, row(first[c]), p, dim);
               d > diam[c]) {
      diam[c] = d;
      far_from_first[c] = t;
    }
  });
  for_each_emission([&](std::size_t c, std::size_t t) {
    diam[c] = std::max(diam[c], kernels::dist(cfg.norm, row(far_from_first[c]),
                                              row(t), dim));
  });
  double lo = 0.0;
  for (const double d : diam) lo = std::max(lo, d / 2.0);

  // Spread outliers (same shape as make_planted's), drawn after every
  // emission.
  for (std::size_t i = 0; i < z; ++i) {
    double* o = row(outlier_pos(i));
    o[0] = -spacing * (2.0 + static_cast<double>(i));
    for (int j = 1; j < dim; ++j) o[j] = rng.uniform_real(0.0, R);
    inst.outlier_indices.push_back(outlier_pos(i));
  }
  inst.buffer = kernels::PointBuffer(dim);
  inst.buffer.reserve(cfg.n);
  for (const auto& wp : inst.points) inst.buffer.append(wp.p);

  inst.opt_hi = hi;
  inst.opt_lo = lo;
  KC_ENSURES(inst.opt_lo <= inst.opt_hi * (1.0 + 1e-12));
  KC_ENSURES(inst.opt_hi < spacing / 4.0);
  return inst;
}

std::vector<GridPoint> discretize(const WeightedSet& pts, std::int64_t delta) {
  KC_EXPECTS(!pts.empty());
  KC_EXPECTS(delta >= 2);
  const int dim = pts.front().p.dim();
  Box box = Box::empty(dim);
  for (const auto& wp : pts) box.extend(wp.p);
  const double span = std::max(box.max_side(), 1e-12);
  const double scale = static_cast<double>(delta - 1) / span;
  std::vector<GridPoint> out;
  out.reserve(pts.size());
  for (const auto& wp : pts) {
    GridPoint& g = out.emplace_back();
    g.dim = dim;
    for (int j = 0; j < dim; ++j)
      g.c[static_cast<std::size_t>(j)] =
          snap_coord(wp.p[j], box.lo()[j], scale, delta);
  }
  return out;
}

}  // namespace kc
