#include "workload/generators.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "geometry/box.hpp"
#include "util/check.hpp"

namespace kc {

namespace {

// Uniform sample from the unit ball of the given norm (rejection from the
// cube works for every norm at the small dimensions we target).
Point sample_unit_ball(Rng& rng, int dim, Norm norm) {
  const Metric metric{norm};
  Point origin(dim, 0.0);
  for (;;) {
    Point p(dim);
    for (int i = 0; i < dim; ++i) p[i] = rng.uniform_real(-1.0, 1.0);
    if (metric.dist(p, origin) <= 1.0) return p;
  }
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

// Certified diameter lower bound: double farthest-point probe.
double diameter_lb(std::span<const Point> pts, const Metric& metric) {
  if (pts.size() < 2) return 0.0;
  std::size_t a = 0;
  double best = -1.0;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const double d = metric.dist(pts[0], pts[i]);
    if (d > best) {
      best = d;
      a = i;
    }
  }
  double diam = best;
  for (std::size_t i = 0; i < pts.size(); ++i)
    diam = std::max(diam, metric.dist(pts[a], pts[i]));
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

  PlantedInstance inst;
  inst.config = cfg;
  Rng rng(cfg.seed);
  const Metric metric{cfg.norm};
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

  // Every point goes straight into one array — clusters in order, then the
  // outliers — and each cluster is certified as soon as it is drawn, so no
  // per-cluster copy outlives its own loop.  At n = 10^6 that keeps the
  // transient working set of a rebuild to one array plus the outputs.
  PointSet all;
  all.reserve(cfg.n);
  double hi = 0.0, lo = 0.0;
  for (int c = 0; c < cfg.k; ++c) {
    const Point& center = inst.planted_centers[static_cast<std::size_t>(c)];
    const std::size_t size = sizes[static_cast<std::size_t>(c)];
    // Near-duplicate flood: ⌈size/duplicates⌉ distinct samples, each
    // replicated with jitter ≤ 1e-9·R (stress for dedup-hostile summaries).
    const std::size_t distinct = (size + cfg.duplicates - 1) / cfg.duplicates;
    PointSet bases;
    bases.reserve(distinct);
    for (std::size_t i = 0; i < distinct; ++i) {
      const Point offset =
          sample_unit_ball(rng, cfg.dim, cfg.norm) * cfg.cluster_radius;
      bases.push_back(center + offset);
    }
    const std::size_t first = all.size();
    for (std::size_t i = 0; i < size; ++i) {
      Point p = bases[i / cfg.duplicates];
      if (cfg.duplicates > 1 && i % cfg.duplicates != 0)
        for (int dcoord = 0; dcoord < cfg.dim; ++dcoord)
          p[dcoord] += rng.uniform_real(-1e-9, 1e-9) * cfg.cluster_radius;
      all.push_back(p);
    }
    // Certify the bracket on this cluster.
    const std::span<const Point> cluster(all.data() + first, size);
    double far = 0.0;
    for (const auto& p : cluster) far = std::max(far, metric.dist(p, center));
    hi = std::max(hi, far);
    lo = std::max(lo, diameter_lb(cluster, metric) / 2.0);
  }
  const std::size_t cluster_points = all.size();

  // Outliers.  Spread: far along the negative first axis, pairwise
  // ≥ spacing apart.  Burst: one tight clump of diameter ≤ 2R at
  // −2·spacing — any ball covering the clump strands a ≥ z+1 cluster, so
  // the bracket certificate above still holds.
  for (std::size_t i = 0; i < z; ++i) {
    Point o(cfg.dim, 0.0);
    if (cfg.outliers == OutlierPattern::Burst) {
      o = sample_unit_ball(rng, cfg.dim, cfg.norm) * cfg.cluster_radius;
      o[0] -= 2.0 * spacing;
    } else {
      o[0] = -spacing * (2.0 + static_cast<double>(i));
      // jitter the remaining axes slightly so outliers are not collinear
      for (int dcoord = 1; dcoord < cfg.dim; ++dcoord)
        o[dcoord] = rng.uniform_real(0.0, cfg.cluster_radius);
    }
    all.push_back(o);
  }

  // Interleave clusters and outliers (Fisher–Yates with our deterministic
  // rng), then record the outlier indices.
  std::vector<char> is_outlier(all.size(), 0);
  std::fill(is_outlier.begin() + static_cast<std::ptrdiff_t>(cluster_points),
            is_outlier.end(), 1);
  for (std::size_t i = all.size(); i > 1; --i) {
    const std::size_t j = rng.uniform(i);
    std::swap(all[i - 1], all[j]);
    std::swap(is_outlier[i - 1], is_outlier[j]);
  }
  inst.points.reserve(all.size());
  inst.buffer = kernels::PointBuffer(cfg.dim);
  inst.buffer.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    inst.points.push_back({all[i], 1});
    inst.buffer.append(all[i]);
    if (is_outlier[i] != 0) inst.outlier_indices.push_back(i);
  }
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
  const Metric metric{cfg.norm};
  const double R = cfg.cluster_radius;
  const double spacing = cfg.separation * R;

  // Planted centers = drift midpoints on the usual lattice.
  inst.planted_centers = lattice_centers(cfg.k, cfg.dim, spacing);

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
  const auto for_each_emission = [&](auto&& f) {
    std::size_t t = 0;
    std::size_t next_outlier = 0;
    for (std::size_t u = 0; u < cluster_total; ++u, ++t) {
      for (; next_outlier < z && t == outlier_pos(next_outlier); ++t)
        ++next_outlier;
      f(u % k, t);
    }
  };

  // Cluster emissions, written straight to their stream positions.  At
  // stream progress λ ∈ [0, 1] cluster c emits around anchor + (2λ − 1)·2R
  // along its drift axis: the emission center sweeps 4R end to end, so
  // every member is within 2R + R = 3R of the anchor and the standard
  // certificate (separation 40R ≫ 4·3R) holds.  The certificate is
  // make_planted's, taken in emission order: the farthest member from the
  // anchor, and `diameter_lb`'s double farthest-point probe — the first
  // probe (from the cluster's first member, first maximum kept) runs while
  // the points are drawn, the second in one more pass over the schedule.
  std::vector<std::size_t> first(k, cfg.n);  // position of the first member
  std::vector<std::size_t> far_from_first(k, 0);
  std::vector<double> diam(k, -1.0);
  inst.points.resize(cfg.n);
  double hi = 0.0;
  std::size_t u = 0;
  for_each_emission([&](std::size_t c, std::size_t t) {
    const double lambda =
        cluster_total > 1
            ? static_cast<double>(u) / static_cast<double>(cluster_total - 1)
            : 0.5;
    ++u;
    Point p = sample_unit_ball(rng, cfg.dim, cfg.norm) * R +
              inst.planted_centers[c];
    p[static_cast<int>(c) % cfg.dim] += (2.0 * lambda - 1.0) * 2.0 * R;
    hi = std::max(hi, metric.dist(p, inst.planted_centers[c]));
    if (first[c] == cfg.n) {
      first[c] = far_from_first[c] = t;
    } else if (const double d = metric.dist(inst.points[first[c]].p, p);
               d > diam[c]) {
      diam[c] = d;
      far_from_first[c] = t;
    }
    inst.points[t] = {p, 1};
  });
  for_each_emission([&](std::size_t c, std::size_t t) {
    diam[c] = std::max(
        diam[c], metric.dist(inst.points[far_from_first[c]].p,
                             inst.points[t].p));
  });
  double lo = 0.0;
  for (const double d : diam) lo = std::max(lo, d / 2.0);

  // Spread outliers (same shape as make_planted's), drawn after every
  // emission.
  for (std::size_t i = 0; i < z; ++i) {
    Point o(cfg.dim, 0.0);
    o[0] = -spacing * (2.0 + static_cast<double>(i));
    for (int dcoord = 1; dcoord < cfg.dim; ++dcoord)
      o[dcoord] = rng.uniform_real(0.0, R);
    inst.points[outlier_pos(i)] = {o, 1};
    inst.outlier_indices.push_back(outlier_pos(i));
  }
  inst.buffer = kernels::PointBuffer(cfg.dim);
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
  Box box = Box::empty(pts.front().p.dim());
  for (const auto& wp : pts) box.extend(wp.p);
  const double span = std::max(box.max_side(), 1e-12);
  const double scale = static_cast<double>(delta - 1) / span;
  std::vector<GridPoint> out;
  out.reserve(pts.size());
  for (const auto& wp : pts) {
    Point scaled(wp.p.dim());
    for (int i = 0; i < wp.p.dim(); ++i)
      scaled[i] = (wp.p[i] - box.lo()[i]) * scale;
    out.push_back(snap_to_grid(scaled, delta));
  }
  return out;
}

}  // namespace kc
