#include "core/gonzalez.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

#include "geometry/kernels.hpp"
#include "util/check.hpp"

namespace kc {

namespace {

// Called after each center with the traversal so far, which is then
// exactly `gonzalez(pts, #centers)` (prefix consistency, see the header).
using PrefixHook = std::function<void(const GonzalezResult&)>;

// A key's band is its biased binary exponent, so every key in band b is
// below 2^(b − 1022).  Keys below 2^−1000 (zero and the subnormals among
// them) share the lowest band, whose bound 2^−1000 is far above the
// rounding floor of a key (the header's margin argument).
constexpr std::uint32_t kLowestBand = 22;
constexpr std::size_t kBands = 2048;

inline std::uint32_t band_of(double key) noexcept {
  const auto b =
      static_cast<std::uint32_t>(std::bit_cast<std::uint64_t>(key) >> 52);
  return b < kLowestBand ? kLowestBand : b;
}

// The largest computed key(c, q) at which band b of center c's cluster is
// still scanned for q: F · 2^(b − 1022) · (1 + 1e-9), F = 4 under L2
// (squared keys) and 2 under L1 and L∞.  Past it no point of the band has
// a strictly smaller key to q (header).  2^(b − 1022) is the double whose
// biased exponent is b + 1; band 2046 gives +inf (always scanned), which
// no key within Point::kMaxAbsCoordinate reaches.
template <Norm N>
inline double band_reach(std::uint32_t b) noexcept {
  constexpr double kReach = (N == Norm::L2 ? 4.0 : 2.0) * (1.0 + 1e-9);
  return kReach * std::bit_cast<double>(std::uint64_t{b + 1} << 52);
}

// The traversal under norm N over a buffer of dimension D (0: any
// dimension read at run time; see kernels::with_dim).
//
// Each cluster keeps its members as point indices in one arena, grouped
// by band in ascending order, with a table of its non-empty bands.  A new
// center q scans a cluster's bands from the top down and stops at the
// first band it cannot reach, so the scanned members are a suffix of the
// cluster's span: points that move to q leave it, the others are
// compacted in place, and the span ends earlier.  The movers form q's
// cluster at the arena's tail; the arena is compacted when the tail is
// full.  Keys and assignments stay in the per-point arrays, coordinates in
// the caller's buffer.
template <Norm N, int D>
class PrunedTraversal {
 public:
  PrunedTraversal(const WeightedSet& pts, const kernels::PointBuffer& buf)
      : pts_(pts),
        buf_(buf),
        cols_(kernels::detail::cols<D>(buf, 0, buf.size())) {}

  GonzalezResult run(int max_centers, const Metric& metric, ThreadPool* pool,
                     const PrefixHook& on_prefix) {
    const std::size_t n = buf_.size();
    KC_EXPECTS(n <= std::numeric_limits<std::uint32_t>::max());
    GonzalezResult res;
    res.assignment.assign(n, 0);
    assign_ = res.assignment.data();
    key_.assign(n, std::numeric_limits<double>::infinity());
    cap_ = 2 * n;
    arena_ = std::make_unique_for_overwrite<std::uint32_t[]>(cap_);
    moved_ = std::make_unique_for_overwrite<std::uint32_t[]>(n);
    moved_band_ = std::make_unique_for_overwrite<std::uint16_t[]>(n);
    centers_ = kernels::PointBuffer(buf_.dim());

    std::size_t next = 0;  // first center: index 0 (deterministic)
    for (int t = 0; t < max_centers && static_cast<std::size_t>(t) < n; ++t) {
      res.center_indices.push_back(next);
      const double* q = pts_[next].p.coords().data();
      if (t == 0)
        first_center(q, pool);
      else
        add_center(q, static_cast<std::uint32_t>(t));
      centers_.append(q);
      const kernels::RelaxResult far = farthest();
      const double radius = metric.key_to_dist(far.far_key);
      res.delta.push_back(radius);
      next = far.far_idx;
      if (on_prefix) on_prefix(res);
      // kc-lint-allow(numerics): a max of exact distances is 0.0 only when
      // every remaining point coincides with a selected center.
      if (radius == 0.0) break;  // all points coincide with selected centers
    }
    return res;
  }

 private:
  // Members arena_[begin, end), grouped by band ascending; its non-empty
  // bands are bands_[band_begin, band_end).
  struct Cluster {
    std::size_t begin, end, band_begin, band_end;
  };
  struct Band {
    std::uint32_t offset;  ///< first member, relative to Cluster::begin
    std::uint32_t band;
  };

  [[nodiscard]] double point_key(std::uint32_t i,
                                 const double* q) const noexcept {
    return kernels::detail::key_at<N, D>(cols_, q, i);
  }

  // Centre 0: every point joins it, in one pooled sweep of the relax
  // kernel (whose result does not depend on the pool's thread count).
  void first_center(const double* q, ThreadPool* pool) {
    const std::size_t n = buf_.size();
    const kernels::RelaxResult rr = kernels::relax_min_keys_parallel<N>(
        buf_, q, 0, key_.data(), assign_, pool);
    add_cluster(
        n, [](std::size_t j) { return static_cast<std::uint32_t>(j); },
        [&](std::size_t j) { return band_of(key_[j]); }, rr.far_key,
        static_cast<std::uint32_t>(rr.far_idx));
  }

  // Centre `label` at q: every cluster whose top band q can reach is
  // scanned, and the points that move form the new cluster.
  void add_center(const double* q, std::uint32_t label) {
    const std::size_t t = clusters_.size();
    ckey_.resize(t);
    touched_.resize(t);
    kernels::compute_keys<N>(centers_, q, ckey_.data());
    std::size_t nt = 0;
    for (std::size_t c = 0; c < t; ++c) {
      touched_[nt] = static_cast<std::uint32_t>(c);
      nt += ckey_[c] <= reach_[c] ? 1 : 0;
    }
    n_moved_ = 0;
    moved_far_ = -1.0;
    moved_arg_ = 0;
    for (std::size_t j = 0; j < nt; ++j)
      scan(touched_[j], ckey_[touched_[j]], q, label);
    add_cluster(
        n_moved_, [&](std::size_t j) { return moved_[j]; },
        [&](std::size_t j) { return std::uint32_t{moved_band_[j]}; },
        moved_far_, moved_arg_);
  }

  // Scans the bands of cluster c that q can reach (kc = key(c, q)).
  void scan(std::size_t c, double kc, const double* q, std::uint32_t label) {
    Cluster& cl = clusters_[c];
    Band* bd = bands_.data() + cl.band_begin;
    std::uint32_t* mem = arena_.get() + cl.begin;
    const std::size_t nb = cl.band_end - cl.band_begin;
    const std::size_t size = cl.end - cl.begin;
    std::size_t s = nb;
    while (s > 0 && kc <= band_reach<N>(bd[s - 1].band)) --s;
    std::size_t w = bd[s].offset;  // compacted stayers end here
    std::size_t wb = s;
    for (std::size_t j = s; j < nb; ++j) {
      const std::size_t end = j + 1 < nb ? bd[j + 1].offset : size;
      const std::size_t start = w;
      for (std::size_t r = bd[j].offset; r < end; ++r) {
        const std::uint32_t i = mem[r];
        const double k = point_key(i, q);
        if (k < key_[i]) {
          key_[i] = k;
          assign_[i] = label;
          moved_[n_moved_] = i;
          moved_band_[n_moved_++] = static_cast<std::uint16_t>(band_of(k));
          if (k > moved_far_ || (k == moved_far_ && i < moved_arg_)) {
            moved_far_ = k;
            moved_arg_ = i;
          }
        } else {
          mem[w++] = i;
        }
      }
      if (w > start) bd[wb++] = {static_cast<std::uint32_t>(start), bd[j].band};
    }
    // The center itself (key 0) never moves, so the cluster keeps a band.
    cl.end = cl.begin + w;
    cl.band_end = cl.band_begin + wb;
    if (assign_[carg_[c]] == label) refresh_far(c);
  }

  // Recomputes cluster c's farthest member (max key, lowest index) from its
  // top band, and the reach of that band.
  void refresh_far(std::size_t c) {
    const Cluster& cl = clusters_[c];
    const Band top = bands_[cl.band_end - 1];
    double far = -1.0;
    std::uint32_t arg = 0;
    for (std::size_t r = cl.begin + top.offset; r < cl.end; ++r) {
      const std::uint32_t i = arena_[r];
      if (key_[i] > far || (key_[i] == far && i < arg)) {
        far = key_[i];
        arg = i;
      }
    }
    cmax_[c] = far;
    carg_[c] = arg;
    reach_[c] = band_reach<N>(top.band);
  }

  // Appends the cluster of the m points index(j) in bands band(j), whose
  // farthest member (max key, lowest index) is `arg` at key `far`, grouped
  // by band with a counting pass.
  template <typename Index, typename BandOf>
  void add_cluster(std::size_t m, Index index, BandOf band, double far,
                   std::uint32_t arg) {
    std::uint32_t lo = kBands - 1, hi = kLowestBand;
    for (std::size_t j = 0; j < m; ++j) {
      const std::uint32_t b = band(j);
      ++count_[b];
      lo = std::min(lo, b);
      hi = std::max(hi, b);
    }
    if (tail_ + m > cap_) compact();
    const std::size_t begin = tail_;
    const std::size_t band_begin = bands_.size();
    std::uint32_t offset = 0;
    for (std::uint32_t b = lo; b <= hi; ++b) {
      if (count_[b] == 0) continue;
      bands_.push_back({offset, b});
      offset += std::exchange(count_[b], offset);
    }
    for (std::size_t j = 0; j < m; ++j)
      arena_[begin + count_[band(j)]++] = index(j);
    std::fill(count_.begin() + lo, count_.begin() + hi + 1, 0u);
    tail_ += m;
    clusters_.push_back({begin, tail_, band_begin, bands_.size()});
    cmax_.push_back(far);
    carg_.push_back(arg);
    reach_.push_back(band_reach<N>(hi));
  }

  // Moves every cluster's members and bands to the front of their arenas,
  // in creation order (which is also arena order, so moves go leftwards).
  void compact() {
    std::size_t w = 0, wb = 0;
    for (Cluster& cl : clusters_) {
      std::copy(arena_.get() + cl.begin, arena_.get() + cl.end,
                arena_.get() + w);
      std::copy(bands_.begin() + static_cast<std::ptrdiff_t>(cl.band_begin),
                bands_.begin() + static_cast<std::ptrdiff_t>(cl.band_end),
                bands_.begin() + static_cast<std::ptrdiff_t>(wb));
      cl.end = w + (cl.end - cl.begin);
      cl.begin = w;
      cl.band_end = wb + (cl.band_end - cl.band_begin);
      cl.band_begin = wb;
      w = cl.end;
      wb = cl.band_end;
    }
    tail_ = w;
    bands_.resize(wb);
  }

  // The farthest point: the largest cluster max, lowest index on ties.
  [[nodiscard]] kernels::RelaxResult farthest() const noexcept {
    const std::size_t nc = cmax_.size();
    const kernels::RelaxResult top = kernels::far_scan(cmax_.data(), 0, nc);
    kernels::RelaxResult far{carg_[top.far_idx], top.far_key};
    for (std::size_t c = top.far_idx + 1; c < nc; ++c)
      if (cmax_[c] == top.far_key && carg_[c] < far.far_idx)
        far.far_idx = carg_[c];
    return far;
  }

  const WeightedSet& pts_;
  const kernels::PointBuffer& buf_;
  kernels::detail::Cols<D> cols_;
  std::vector<double> key_;
  std::uint32_t* assign_ = nullptr;

  std::unique_ptr<std::uint32_t[]> arena_;
  std::size_t cap_ = 0, tail_ = 0;
  std::vector<Band> bands_;
  std::vector<Cluster> clusters_;
  // Per cluster, flat: its farthest member (max key, lowest index) and
  // the largest key(c, q) that reaches its top band.
  std::vector<double> cmax_;
  std::vector<std::uint32_t> carg_;
  std::vector<double> reach_;

  kernels::PointBuffer centers_;
  std::vector<double> ckey_;
  std::vector<std::uint32_t> touched_;
  // The points that move in one step, with their bands, and the farthest
  // of them (max key, lowest index).
  std::unique_ptr<std::uint32_t[]> moved_;
  std::unique_ptr<std::uint16_t[]> moved_band_;
  std::size_t n_moved_ = 0;
  double moved_far_ = -1.0;
  std::uint32_t moved_arg_ = 0;
  std::array<std::uint32_t, kBands> count_{};
};

GonzalezResult traverse(const WeightedSet& pts, int max_centers,
                        const Metric& metric, ThreadPool* pool,
                        const kernels::PointBuffer* buffer,
                        const PrefixHook& on_prefix) {
  KC_EXPECTS(max_centers >= 1);
  if (pts.empty()) return {};
  kernels::PointBuffer local;
  const kernels::PointBuffer& buf = kernels::mirror_or_pack(pts, buffer, local);
  return kernels::with_norm(metric.norm(), [&]<Norm N>() {
    return kernels::with_dim(buf.dim(), [&]<int D>() {
      return PrunedTraversal<N, D>(pts, buf).run(max_centers, metric, pool,
                                                 on_prefix);
    });
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
