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
// Floating-point contract: for each norm the kernels accumulate in the
// exact same order as the historical scalar code (dimension-ascending per
// point), so a kernel-computed distance key is bit-identical to
// `Metric::dist_key`.  The differential suite in tests/test_simd.cpp pins
// this down across norms × dimensions × sizes × slice offsets; it is what
// lets the SoA-migrated paths claim "no behavioral change".
//
// Vectorization: the batch kernels dispatch on the buffer's dimension to
// compile-time-specialized bodies for d ∈ {1, 2, 3, 4, 8} that fuse all
// per-point work into one pass with the dimension loop fully unrolled;
// the per-lane operation sequence is identical to the scalar reference,
// so vectorizing *across points* changes no bits.  The hot loops carry a
// `KC_SIMD_LOOP` pragma (ivdep).  GCC 12 at -O3 vectorizes the key and
// min bodies at the x86-64 baseline, but the fused relax (a uint32 assign
// select next to double keys) only with -mavx2 (see docs/ARCHITECTURE.md
// "Memory layout"; CI additionally runs the differential suite under
// -msse4.2 and -mavx2).  Other dimensions fall
// back to `compute_keys_generic`, the retained column-at-a-time reference
// that doubles as the bit-equality ground truth.
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

/// Monotone distance key between two coordinate arrays: squared distance
/// under L2 (avoids the sqrt), the distance itself under L∞/L1.
template <Norm N>
[[nodiscard]] inline double raw_key(const double* a, const double* b,
                                    int d) noexcept {
  if constexpr (N == Norm::L2) {
    double s = 0.0;
    for (int i = 0; i < d; ++i) {
      const double diff = a[i] - b[i];
      s += diff * diff;
    }
    return s;
  } else if constexpr (N == Norm::Linf) {
    double m = 0.0;
    for (int i = 0; i < d; ++i) {
      const double diff = std::fabs(a[i] - b[i]);
      if (diff > m) m = diff;
    }
    return m;
  } else {
    double s = 0.0;
    for (int i = 0; i < d; ++i) s += std::fabs(a[i] - b[i]);
    return s;
  }
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

// The dimension-dispatch switches below guarantee a fixed-D body only ever
// runs with D == buf.dim() == the query's length, but after inlining GCC's
// -Warray-bounds speculates into the dead branches (a d=3 query reaching
// the unrolled D=8 body it can never take) and warns on q[j], j >= 3.
// Silence that false positive for the fixed-dimension bodies only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#endif

/// The dimensions with a compile-time-specialized fused kernel body.
constexpr bool has_fixed_dim(int d) noexcept {
  return d == 1 || d == 2 || d == 3 || d == 4 || d == 8;
}

template <int D, typename Buf>
[[nodiscard]] inline std::array<const double*, D> col_ptrs(
    const Buf& buf, std::size_t offset) noexcept {
  std::array<const double*, D> c;
  for (int j = 0; j < D; ++j) c[static_cast<std::size_t>(j)] = buf.col(j) + offset;
  return c;
}

/// Per-point key under norm N from D column pointers — the unrolled body
/// shared by every fixed-dimension kernel.  Accumulation is
/// dimension-ascending, identical to `raw_key`.
template <Norm N, int D>
[[nodiscard]] inline double key_at(const std::array<const double*, D>& c,
                                   const double* q, std::size_t i) noexcept {
  if constexpr (N == Norm::L2) {
    double s = 0.0;
    for (int j = 0; j < D; ++j) {
      const double diff = c[static_cast<std::size_t>(j)][i] - q[j];
      s += diff * diff;
    }
    return s;
  } else if constexpr (N == Norm::Linf) {
    double m = 0.0;
    for (int j = 0; j < D; ++j) {
      const double diff = std::fabs(c[static_cast<std::size_t>(j)][i] - q[j]);
      if (diff > m) m = diff;
    }
    return m;
  } else {
    double s = 0.0;
    for (int j = 0; j < D; ++j)
      s += std::fabs(c[static_cast<std::size_t>(j)][i] - q[j]);
    return s;
  }
}

/// Fixed-dimension `compute_keys`: one fused pass, dimension loop unrolled,
/// vectorized across points.
template <Norm N, int D, typename Buf>
inline void compute_keys_fixed(const Buf& buf, const double* q, double* out,
                               std::size_t begin, std::size_t end) noexcept {
  const auto c = col_ptrs<D>(buf, begin);
  double* o = out + begin;
  const std::size_t n = end - begin;
  KC_SIMD_LOOP
  for (std::size_t i = 0; i < n; ++i) o[i] = key_at<N, D>(c, q, i);
}

/// Fixed-dimension fused relax: keys[i] = min(keys[i], key(i, q)) with
/// assign[i] = label on improvement.  Branchless selects so the loop
/// vectorizes; the stored values match the branching scalar loop exactly.
template <Norm N, int D, typename Buf>
inline void relax_fixed(const Buf& buf, const double* q, std::uint32_t label,
                        double* keys, std::uint32_t* assign, std::size_t begin,
                        std::size_t end) noexcept {
  const auto c = col_ptrs<D>(buf, begin);
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

/// Fixed-dimension fused min: keys[i] = min(keys[i], key(i, q)).
template <Norm N, int D, typename Buf>
inline void min_keys_fixed(const Buf& buf, const double* q, double* keys,
                           std::size_t begin, std::size_t end) noexcept {
  const auto c = col_ptrs<D>(buf, begin);
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

/// `compute_keys_generic` restricted to the index range [begin, end): the
/// retained column-at-a-time reference pass (the historical PR-2 kernel).
/// Per-point accumulation is dimension-ascending regardless of the range
/// split, so out[i] == key_to<N>(i, q) for every i in the range.  Ground
/// truth for the fixed-dimension bodies (tests/test_simd.cpp) and the
/// fallback for dimensions without one.
template <Norm N, typename Buf>
inline void compute_keys_generic_range(const Buf& buf, const double* q,
                                       double* out, std::size_t begin,
                                       std::size_t end) noexcept {
  for (std::size_t i = begin; i < end; ++i) out[i] = 0.0;
  for (int j = 0; j < buf.dim(); ++j) {
    const double* c = buf.col(j);
    const double qj = q[j];
    if constexpr (N == Norm::L2) {
      for (std::size_t i = begin; i < end; ++i) {
        const double diff = c[i] - qj;
        out[i] += diff * diff;
      }
    } else if constexpr (N == Norm::Linf) {
      for (std::size_t i = begin; i < end; ++i) {
        const double diff = std::fabs(c[i] - qj);
        if (diff > out[i]) out[i] = diff;
      }
    } else {
      for (std::size_t i = begin; i < end; ++i)
        out[i] += std::fabs(c[i] - qj);
    }
  }
}

/// Writes the distance key of every buffered point to `q` into out[begin,
/// end).  Dispatches on the buffer's dimension to the fused vectorized
/// bodies; bit-identical to `compute_keys_generic_range` for every
/// dimension (same per-point accumulation order).
template <Norm N, typename Buf>
inline void compute_keys_range(const Buf& buf, const double* q, double* out,
                               std::size_t begin, std::size_t end) noexcept {
  switch (buf.dim()) {
    case 1: compute_keys_fixed<N, 1>(buf, q, out, begin, end); return;
    case 2: compute_keys_fixed<N, 2>(buf, q, out, begin, end); return;
    case 3: compute_keys_fixed<N, 3>(buf, q, out, begin, end); return;
    case 4: compute_keys_fixed<N, 4>(buf, q, out, begin, end); return;
    case 8: compute_keys_fixed<N, 8>(buf, q, out, begin, end); return;
    default: compute_keys_generic_range<N>(buf, q, out, begin, end); return;
  }
}

}  // namespace detail

template <Norm N, typename Buf>
inline void compute_keys_generic(const Buf& buf, const double* q,
                                 double* out) noexcept {
  detail::compute_keys_generic_range<N>(buf, q, out, 0, buf.size());
}

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

/// Relaxation over [begin, end) without the far reduction: fused fixed-dim
/// body when available, else the generic pass through `scratch`.
template <Norm N, typename Buf>
inline void relax_range(const Buf& buf, const double* q, std::uint32_t label,
                        double* keys, std::uint32_t* assign, double* scratch,
                        std::size_t begin, std::size_t end) noexcept {
  switch (buf.dim()) {
    case 1: relax_fixed<N, 1>(buf, q, label, keys, assign, begin, end); return;
    case 2: relax_fixed<N, 2>(buf, q, label, keys, assign, begin, end); return;
    case 3: relax_fixed<N, 3>(buf, q, label, keys, assign, begin, end); return;
    case 4: relax_fixed<N, 4>(buf, q, label, keys, assign, begin, end); return;
    case 8: relax_fixed<N, 8>(buf, q, label, keys, assign, begin, end); return;
    default: break;
  }
  compute_keys_generic_range<N>(buf, q, scratch, begin, end);
  for (std::size_t i = begin; i < end; ++i) {
    if (scratch[i] < keys[i]) {
      keys[i] = scratch[i];
      assign[i] = label;
    }
  }
}

}  // namespace detail

/// One Gonzalez relaxation sweep: keys[i] = min(keys[i], key(i, q)) with
/// assign[i] = label on improvement, returning the farthest point under the
/// *relaxed* keys (first max wins, matching the historical scalar loop).
/// `scratch` must have room for buf.size() doubles (used only on the
/// generic-dimension fallback; the fixed-dimension bodies fuse the relax
/// into the key computation and never touch it).
template <Norm N, typename Buf>
inline RelaxResult relax_min_keys(const Buf& buf, const double* q,
                                  std::uint32_t label, double* keys,
                                  std::uint32_t* assign,
                                  double* scratch) noexcept {
  const std::size_t n = buf.size();
  detail::relax_range<N>(buf, q, label, keys, assign, scratch, 0, n);
  return far_scan(keys, 0, n);
}

/// keys[i] = min(keys[i], key(i, q)) without assignment tracking — the
/// nearest-center evaluation sweep (core/cost.cpp).
template <Norm N, typename Buf>
inline void min_keys(const Buf& buf, const double* q, double* keys,
                     double* scratch) noexcept {
  const std::size_t n = buf.size();
  switch (buf.dim()) {
    case 1: detail::min_keys_fixed<N, 1>(buf, q, keys, 0, n); return;
    case 2: detail::min_keys_fixed<N, 2>(buf, q, keys, 0, n); return;
    case 3: detail::min_keys_fixed<N, 3>(buf, q, keys, 0, n); return;
    case 4: detail::min_keys_fixed<N, 4>(buf, q, keys, 0, n); return;
    case 8: detail::min_keys_fixed<N, 8>(buf, q, keys, 0, n); return;
    default: break;
  }
  detail::compute_keys_generic_range<N>(buf, q, scratch, 0, n);
  for (std::size_t i = 0; i < n; ++i)
    if (scratch[i] < keys[i]) keys[i] = scratch[i];
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
                                           double* scratch, ThreadPool* pool,
                                           std::size_t grain = kParallelGrain) {
  const std::size_t n = buf.size();
  if (pool == nullptr || pool->num_threads() <= 1 || n <= grain)
    return relax_min_keys<N>(buf, q, label, keys, assign, scratch);
  const std::size_t chunks = pool->chunk_count(n, grain);
  std::vector<RelaxResult> part(chunks);
  pool->parallel_for_chunks(
      n, grain, [&](std::size_t c, std::size_t begin, std::size_t end) {
        detail::relax_range<N>(buf, q, label, keys, assign, scratch, begin,
                               end);
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
