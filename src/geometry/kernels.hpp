// Inline distance kernels over SoA point buffers — the performance layer.
//
// Every algorithm in the library bottoms out in one of four loops: a
// point-to-point distance, a "relax all distances against one new center"
// sweep (Gonzalez), a "first representative within this radius" probe
// (mini-ball coverings, streaming inserts), or a "how much weight sits
// inside this ball" scan (Charikar).  This header provides those loops as
// header-inline, norm-templated kernels over any SoA buffer or slice
// (geometry/point_buffer.hpp); `Metric` (geometry/metric.hpp) dispatches
// its scalar calls here, and the hot paths in core/ call the batch
// primitives directly.
//
// Floating-point contract: every key is the one formula `key_of`
// (geometry/point_buffer.hpp), accumulated dimension-ascending per point,
// so a kernel-computed distance key is bit-identical to `Metric::dist_key`.
// The differential suite in tests/test_simd.cpp pins this down across
// norms × dimensions 1–9 × sizes × slice offsets against its own scalar
// loop.
//
// Dimension dispatch: `with_dim` is the one place a runtime dimension
// becomes a template argument D.  d ∈ {1, 2, 3, 4, 8} get bodies that
// fuse all per-point work into one pass with the dimension loop fully
// unrolled; every other d runs the same bodies at D = 0, with the
// dimension read at run time (`compute_keys` alone keeps a column-at-a-
// time pass there, faster than a per-row loop at d = 5–7); kc_lint's api
// rule keeps every other dimension dispatch out of src/.  The per-lane
// operation sequence is the scalar one, so vectorizing *across points*
// changes no bits.  The hot loops carry a `KC_SIMD_LOOP` pragma (ivdep).
// GCC 12 at -O3 vectorizes the unrolled key and min bodies at the x86-64
// baseline, but the fused relax (a uint32 assign select next to double
// keys) only with -mavx2 (see docs/ARCHITECTURE.md "Memory layout"; CI
// additionally runs the differential suite under -msse4.2 and -mavx2).
//
// Norm dispatch: the kernels are templated on the norm, and `with_norm`
// is the one place a runtime `Norm` becomes that template argument —
// `Metric`'s inline calls and every batch consumer in core/, stream/ and
// dataset/ go through it (kc_lint's api rule keeps `case Norm::` labels
// inside geometry/).  Each kernel takes any SoA buffer or slice (a
// `PointBuffer` or a `BufferView`) over float64 columns.
//
// The `_parallel` variants split the scanned range into the deterministic
// chunks of `kc::ThreadPool` and reduce the per-chunk partials in ascending
// chunk order, so their results are bit-identical to the scalar kernels at
// every thread count (pinned by tests/test_parallel.cpp).  Pass a null pool
// (or one with a single thread) to get the serial kernel unchanged.

#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "geometry/point.hpp"
#include "geometry/point_buffer.hpp"
#include "util/parallel.hpp"

// Vectorization hint for the fused per-point loops: the arrays a kernel
// writes (keys/assign/out) never alias the coordinate columns it reads
// (caller contract, unchanged since PR 2), so dependence analysis may
// assume no loop-carried dependences.
#if defined(__clang__)
#define KC_SIMD_LOOP _Pragma("clang loop vectorize(enable) interleave(enable)")
#elif defined(__GNUC__)
#define KC_SIMD_LOOP _Pragma("GCC ivdep")
#else
#define KC_SIMD_LOOP
#endif

namespace kc {

namespace kernels {

/// Calls `f.template operator()<N>()` with N = n and returns its result:
/// the only mapping from a runtime `Norm` to a kernel instantiation.
/// Callers pass a template lambda, `[&]<Norm N>() { ... }`.
template <typename F>
inline decltype(auto) with_norm(Norm n, F&& f) {
  switch (n) {
    case Norm::Linf: return f.template operator()<Norm::Linf>();
    case Norm::L1: return f.template operator()<Norm::L1>();
    case Norm::L2: break;
  }
  return f.template operator()<Norm::L2>();
}

/// Calls `f.template operator()<D>()` with D = d for the unrolled
/// dimensions {1, 2, 3, 4, 8} and D = 0 (dimension read at run time) for
/// every other d, and returns its result: the only mapping from a runtime
/// dimension to a kernel instantiation.  Callers pass a template lambda,
/// `[&]<int D>() { ... }`.
template <typename F>
inline decltype(auto) with_dim(int d, F&& f) {
  switch (d) {
    case 1: return f.template operator()<1>();
    case 2: return f.template operator()<2>();
    case 3: return f.template operator()<3>();
    case 4: return f.template operator()<4>();
    case 8: return f.template operator()<8>();
    default: break;
  }
  return f.template operator()<0>();
}

/// Distance key (`key_of`) between two coordinate arrays of length d.
template <Norm N>
[[nodiscard]] inline double raw_key(const double* a, const double* b,
                                    int d) noexcept {
  return key_of<N>([&](int j) { return a[j]; }, b, d);
}

/// Runtime-norm `raw_key` (for call sites that hold a `Norm` value rather
/// than a template parameter, e.g. the inline Metric methods).
[[nodiscard]] inline double dist_key(Norm n, const double* a, const double* b,
                                     int d) noexcept {
  return with_norm(n, [&]<Norm N>() { return raw_key<N>(a, b, d); });
}

/// Converts a key back to a distance.
[[nodiscard]] inline double key_to_dist(Norm n, double key) noexcept {
  return n == Norm::L2 ? std::sqrt(key) : key;
}

/// Actual distance (key with the L2 sqrt applied).
[[nodiscard]] inline double dist(Norm n, const double* a, const double* b,
                                 int d) noexcept {
  return key_to_dist(n, dist_key(n, a, b, d));
}

/// Converts a distance threshold to a key threshold (`dist <= r` iff
/// `key <= dist_to_key(n, r)` for r >= 0).
[[nodiscard]] inline double dist_to_key(Norm n, double r) noexcept {
  return n == Norm::L2 ? r * r : r;
}

namespace detail {

// `with_dim` hands a fixed-D body only buffers of dimension D, whose
// queries have D coordinates, but after inlining GCC's -Warray-bounds
// speculates into the bodies a call can never take (a d = 3 query reaching
// the unrolled D = 8 body) and warns on q[j], j >= 3; the D = 0 bodies
// read only the buffer's own dimension.  Silence that false positive for
// the kernel bodies only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#endif

/// Column access of the kernel bodies: the D column pointers when D > 0,
/// the slice itself (column j found on each read) when D = 0.
template <int D>
struct Cols {
  std::array<const double*, D> p;
  [[nodiscard]] const double* col(int j) const noexcept {
    return p[static_cast<std::size_t>(j)];
  }
  [[nodiscard]] static constexpr int dim() noexcept { return D; }
};

template <>
struct Cols<0> {
  BufferView v;
  [[nodiscard]] const double* col(int j) const noexcept { return v.col(j); }
  [[nodiscard]] int dim() const noexcept { return v.dim(); }
};

/// The columns of rows [begin, end) of `buf`.
template <int D, typename Buf>
[[nodiscard]] inline Cols<D> cols(const Buf& buf, std::size_t begin,
                                  std::size_t end) noexcept {
  if constexpr (D == 0) {
    return {buf.view(begin, end - begin)};
  } else {
    Cols<D> c;
    for (int j = 0; j < D; ++j)
      c.p[static_cast<std::size_t>(j)] = buf.col(j) + begin;
    return c;
  }
}

/// Key of row i of `c` to q under norm N.
template <Norm N, int D>
[[nodiscard]] inline double key_at(const Cols<D>& c, const double* q,
                                   std::size_t i) noexcept {
  return key_of<N, D>([&](int j) { return c.col(j)[i]; }, q, c.dim());
}

/// `compute_keys` over [begin, end).  D > 0: one fused pass, dimension
/// loop unrolled, vectorized across points.  D = 0: one pass per column,
/// still dimension-ascending per point (the bits of `key_of`).
template <Norm N, int D, typename Buf>
inline void compute_keys_fixed(const Buf& buf, const double* q, double* out,
                               std::size_t begin, std::size_t end) noexcept {
  double* o = out + begin;
  const std::size_t n = end - begin;
  if constexpr (D == 0) {
    for (std::size_t i = 0; i < n; ++i) o[i] = 0.0;
    for (int j = 0; j < buf.dim(); ++j) {
      const double* c = buf.col(j) + begin;
      const double qj = q[j];
      if constexpr (N == Norm::L2) {
        for (std::size_t i = 0; i < n; ++i) {
          const double diff = c[i] - qj;
          o[i] += diff * diff;
        }
      } else if constexpr (N == Norm::Linf) {
        for (std::size_t i = 0; i < n; ++i) {
          const double diff = std::fabs(c[i] - qj);
          if (diff > o[i]) o[i] = diff;
        }
      } else {
        for (std::size_t i = 0; i < n; ++i) o[i] += std::fabs(c[i] - qj);
      }
    }
  } else {
    const auto c = cols<D>(buf, begin, end);
    KC_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i) o[i] = key_at<N, D>(c, q, i);
  }
}

/// Fused relax: keys[i] = min(keys[i], key(i, q)) with assign[i] = label
/// on improvement.  Branchless selects so the loop vectorizes; the stored
/// values match the branching scalar loop exactly.
template <Norm N, int D, typename Buf>
inline void relax_fixed(const Buf& buf, const double* q, std::uint32_t label,
                        double* keys, std::uint32_t* assign, std::size_t begin,
                        std::size_t end) noexcept {
  const auto c = cols<D>(buf, begin, end);
  double* k = keys + begin;
  std::uint32_t* a = assign + begin;
  const std::size_t n = end - begin;
  KC_SIMD_LOOP
  for (std::size_t i = 0; i < n; ++i) {
    const double s = key_at<N, D>(c, q, i);
    const bool hit = s < k[i];
    k[i] = hit ? s : k[i];
    a[i] = hit ? label : a[i];
  }
}

/// Fused min: keys[i] = min(keys[i], key(i, q)).
template <Norm N, int D, typename Buf>
inline void min_keys_fixed(const Buf& buf, const double* q, double* keys,
                           std::size_t begin, std::size_t end) noexcept {
  const auto c = cols<D>(buf, begin, end);
  double* k = keys + begin;
  const std::size_t n = end - begin;
  KC_SIMD_LOOP
  for (std::size_t i = 0; i < n; ++i) {
    const double s = key_at<N, D>(c, q, i);
    k[i] = s < k[i] ? s : k[i];
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

/// Writes the distance key of every buffered point to `q` into out[begin,
/// end).
template <Norm N, typename Buf>
inline void compute_keys_range(const Buf& buf, const double* q, double* out,
                               std::size_t begin, std::size_t end) noexcept {
  with_dim(buf.dim(), [&]<int D>() {
    compute_keys_fixed<N, D>(buf, q, out, begin, end);
  });
}

}  // namespace detail

template <Norm N, typename Buf>
inline void compute_keys(const Buf& buf, const double* q,
                         double* out) noexcept {
  detail::compute_keys_range<N>(buf, q, out, 0, buf.size());
}

struct RelaxResult {
  std::size_t far_idx = 0;  ///< first index attaining the max relaxed key
  double far_key = -1.0;    ///< max over i of the relaxed keys[i]
};

/// Max over keys[begin, end), first max wins (the historical Gonzalez
/// tie-breaking: an ascending scan updating on strict `>`).  Implemented
/// as two vectorizable passes — a max-value reduction, then the first
/// index attaining it — which is provably the same result: the serial
/// scan's far_key is max(keys) when that exceeds the -1 sentinel, and its
/// far_idx is the first index attaining the max (later equal keys fail
/// the strict `>`).  Distance keys are never NaN, so the max reduction is
/// order-independent.
[[nodiscard]] inline RelaxResult far_scan(const double* keys,
                                          std::size_t begin,
                                          std::size_t end) noexcept {
  // Single blocked pass.  Per block: a max reduction with four independent
  // accumulators (GCC will not vectorize a single-accumulator FP max
  // without -ffast-math, but the explicitly reassociated form SLP-
  // vectorizes to packed max ops), then only blocks that improve the
  // running max are rescanned — O(log #blocks) expected, and the block is
  // still in L1.  Strict `>` across ascending blocks + first-index within
  // the improving block reproduce the serial first-max-wins scan exactly.
  constexpr std::size_t kB = 256;
  RelaxResult best;
  for (std::size_t b = begin; b < end; b += kB) {
    const std::size_t e = b + kB < end ? b + kB : end;
    double m0 = -1.0, m1 = -1.0, m2 = -1.0, m3 = -1.0;
    std::size_t i = b;
    for (; i + 4 <= e; i += 4) {
      m0 = keys[i] > m0 ? keys[i] : m0;
      m1 = keys[i + 1] > m1 ? keys[i + 1] : m1;
      m2 = keys[i + 2] > m2 ? keys[i + 2] : m2;
      m3 = keys[i + 3] > m3 ? keys[i + 3] : m3;
    }
    for (; i < e; ++i) m0 = keys[i] > m0 ? keys[i] : m0;
    m0 = m1 > m0 ? m1 : m0;
    m2 = m3 > m2 ? m3 : m2;
    const double m = m2 > m0 ? m2 : m0;
    if (m > best.far_key) {
      for (std::size_t j = b; j < e; ++j) {
        if (keys[j] == m) {
          best = {j, m};
          break;
        }
      }
    }
  }
  return best;
}

namespace detail {

/// Relaxation over [begin, end) without the far reduction.
template <Norm N, typename Buf>
inline void relax_range(const Buf& buf, const double* q, std::uint32_t label,
                        double* keys, std::uint32_t* assign, std::size_t begin,
                        std::size_t end) noexcept {
  with_dim(buf.dim(), [&]<int D>() {
    relax_fixed<N, D>(buf, q, label, keys, assign, begin, end);
  });
}

}  // namespace detail

/// One Gonzalez relaxation sweep: keys[i] = min(keys[i], key(i, q)) with
/// assign[i] = label on improvement, returning the farthest point under the
/// *relaxed* keys (first max wins, matching the historical scalar loop).
template <Norm N, typename Buf>
inline RelaxResult relax_min_keys(const Buf& buf, const double* q,
                                  std::uint32_t label, double* keys,
                                  std::uint32_t* assign) noexcept {
  const std::size_t n = buf.size();
  detail::relax_range<N>(buf, q, label, keys, assign, 0, n);
  return far_scan(keys, 0, n);
}

/// keys[i] = min(keys[i], key(i, q)) without assignment tracking — the
/// nearest-center evaluation sweep (core/cost.cpp).
template <Norm N, typename Buf>
inline void min_keys(const Buf& buf, const double* q, double* keys) noexcept {
  with_dim(buf.dim(), [&]<int D>() {
    detail::min_keys_fixed<N, D>(buf, q, keys, 0, buf.size());
  });
}

/// Block size of `first_within`: keys are computed for one block at a time
/// into a stack buffer (vectorized), then scanned in ascending order, so
/// the early exit costs at most one block of extra work.
constexpr std::size_t kFirstWithinBlock = 128;

/// First index i (ascending) with key(i, q) <= key_thresh, or buf.size()
/// when no point is within the threshold — the "join an existing
/// representative" probe of the covering passes and the streaming insert
/// path.  Identical result to the scalar first-hit scan (exact
/// comparisons, ascending order).
template <Norm N, typename Buf>
[[nodiscard]] inline std::size_t first_within(const Buf& buf, const double* q,
                                              double key_thresh) noexcept {
  const std::size_t n = buf.size();
  // Scalar early-exit prefix first: the covering probes hit within the
  // first few representatives far more often than not, and a full
  // 128-wide block of keys is wasted work there.
  constexpr std::size_t kPrefix = 16;
  const std::size_t p = std::min(kPrefix, n);
  for (std::size_t i = 0; i < p; ++i)
    if (buf.template key_to<N>(i, q) <= key_thresh) return i;
  double tmp[kFirstWithinBlock];
  for (std::size_t b = p; b < n; b += kFirstWithinBlock) {
    const std::size_t len = std::min(kFirstWithinBlock, n - b);
    detail::compute_keys_range<N>(buf.view(b, len), q, tmp, 0, len);
    for (std::size_t i = 0; i < len; ++i)
      if (tmp[i] <= key_thresh) return b + i;
  }
  return n;
}

/// Total weight of the not-yet-covered candidates within the key threshold:
/// the Charikar "how much uncovered weight does this ball grab" scan over a
/// grid-bucketed candidate list.  Pass covered == nullptr when nothing is
/// covered yet.
template <Norm N, typename Buf>
[[nodiscard]] inline std::int64_t count_within(
    const Buf& buf, const std::uint32_t* idx, std::size_t m, const double* q,
    double key_thresh, const std::int64_t* w,
    const std::uint8_t* covered) noexcept {
  std::int64_t sum = 0;
  for (std::size_t t = 0; t < m; ++t) {
    const std::uint32_t j = idx[t];
    if (covered != nullptr && covered[j] != 0) continue;
    if (buf.template key_to<N>(j, q) <= key_thresh) sum += w[j];
  }
  return sum;
}

namespace detail {

/// The serial body of `mark_within_parallel`.
template <Norm N, typename Buf, typename F>
inline std::int64_t mark_within(const Buf& buf, const std::uint32_t* idx,
                                std::size_t m, const double* q,
                                double key_thresh, const std::int64_t* w,
                                std::uint8_t* covered, F&& on_covered) {
  std::int64_t removed = 0;
  for (std::size_t t = 0; t < m; ++t) {
    const std::uint32_t j = idx[t];
    if (covered[j] != 0) continue;
    if (buf.template key_to<N>(j, q) <= key_thresh) {
      covered[j] = 1;
      removed += w[j];
      on_covered(j);
    }
  }
  return removed;
}

}  // namespace detail

// Default chunk grain of the parallel kernels: below this many points the
// serial kernel wins (chunk dispatch costs more than the scan).
constexpr std::size_t kParallelGrain = 8192;

/// Chunk-parallel `relax_min_keys`.  Each chunk relaxes its own disjoint
/// slice of keys/assign; the farthest point is then reduced over the
/// per-chunk first-max results in ascending chunk order with a strict `>`,
/// which reproduces the serial loop's first-max-wins tie-breaking exactly.
template <Norm N, typename Buf>
inline RelaxResult relax_min_keys_parallel(const Buf& buf, const double* q,
                                           std::uint32_t label, double* keys,
                                           std::uint32_t* assign,
                                           ThreadPool* pool,
                                           std::size_t grain = kParallelGrain) {
  const std::size_t n = buf.size();
  if (pool == nullptr || pool->num_threads() <= 1 || n <= grain)
    return relax_min_keys<N>(buf, q, label, keys, assign);
  const std::size_t chunks = pool->chunk_count(n, grain);
  std::vector<RelaxResult> part(chunks);
  pool->parallel_for_chunks(
      n, grain, [&](std::size_t c, std::size_t begin, std::size_t end) {
        detail::relax_range<N>(buf, q, label, keys, assign, begin, end);
        part[c] = far_scan(keys, begin, end);
      });
  RelaxResult res = part[0];
  for (std::size_t c = 1; c < chunks; ++c)
    if (part[c].far_key > res.far_key) res = part[c];
  return res;
}

/// Marks every uncovered candidate within the key threshold as covered,
/// invoking `on_covered(j)` once per newly covered index, and returns the
/// total weight removed (the Charikar 3r-ball removal).  The candidate
/// filter (the distance scan) runs concurrently with `covered` read-only;
/// the mutation — marking, weight removal, `on_covered` — is applied on the
/// calling thread in ascending chunk order, with the already-covered
/// re-check preserved, so the covered set, the removed weight, and the
/// `on_covered` invocation order all match the serial kernel exactly (even
/// when idx holds duplicates).
template <Norm N, typename Buf, typename F>
inline std::int64_t mark_within_parallel(const Buf& buf,
                                         const std::uint32_t* idx,
                                         std::size_t m, const double* q,
                                         double key_thresh,
                                         const std::int64_t* w,
                                         std::uint8_t* covered, F&& on_covered,
                                         ThreadPool* pool,
                                         std::size_t grain = kParallelGrain) {
  if (pool == nullptr || pool->num_threads() <= 1 || m <= grain)
    return detail::mark_within<N>(buf, idx, m, q, key_thresh, w, covered,
                                  std::forward<F>(on_covered));
  const std::size_t chunks = pool->chunk_count(m, grain);
  std::vector<std::vector<std::uint32_t>> hits(chunks);
  pool->parallel_for_chunks(
      m, grain, [&](std::size_t c, std::size_t begin, std::size_t end) {
        auto& h = hits[c];
        for (std::size_t t = begin; t < end; ++t) {
          const std::uint32_t j = idx[t];
          if (covered[j] == 0 && buf.template key_to<N>(j, q) <= key_thresh)
            h.push_back(j);
        }
      });
  std::int64_t removed = 0;
  for (const auto& h : hits) {
    for (const std::uint32_t j : h) {
      if (covered[j] != 0) continue;  // duplicate occurrence in idx
      covered[j] = 1;
      removed += w[j];
      on_covered(j);
    }
  }
  return removed;
}

}  // namespace kernels
}  // namespace kc
