#include "core/charikar.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "geometry/grid_index.hpp"
#include "geometry/kernels.hpp"
#include "util/check.hpp"

namespace kc {

namespace {

// Ladder length: candidates hi/(1+β)^j for j = 0..kMaxLadder.
constexpr int kMaxLadder = 96;

// Grid-accelerated greedy pass.  Invariant maintained across rounds:
//   cand[i] = total weight of the *uncovered* points within distance r of
//             point i  (exactly the wsum the reference recomputes per
//             round — weights are integers, so the incremental updates
//             are exact).
// Each pair (i, j) with dist(i, j) <= r is touched at most twice (once in
// the initial count, once when j is covered), so the total work is
// O(Σ|ball_r|) plus O(k·n) for the argmax scans — instead of the
// reference's O(k·n²).
template <Norm N>
CharikarRun charikar_run_grid(const WeightedSet& pts, int k, std::int64_t z,
                              double r, ThreadPool* pool,
                              const kernels::PointBuffer* prebuilt) {
  CharikarRun out;
  const std::size_t n = pts.size();
  const int dim = pts.front().p.dim();
  kernels::PointBuffer local;
  const kernels::PointBuffer& buf =
      kernels::mirror_or_pack(pts, prebuilt, local);
  std::vector<std::int64_t> w(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = pts[i].w;
  std::vector<std::uint8_t> covered(n, 0);
  std::int64_t uncovered_w = 0;
  for (const std::int64_t wi : w) uncovered_w += wi;

  const double r_key = kernels::dist_to_key(N, r);
  const double r3 = 3.0 * r;
  const double r3_key = kernels::dist_to_key(N, r3);

  // At r = 0 only exact duplicates count, and they share any cell.
  GridIndex grid(r > 0.0 ? r : 1.0, dim);
  grid.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    grid.insert(pts[i].p, static_cast<std::uint32_t>(i));
  const int reach3 = grid.reach_for(r3);
  // A neighborhood of (2·reach+1)^d cells can outnumber the points (high d,
  // few points): its candidates are then all points.  Any superset of a
  // ball gives the same counts, so the result does not change.
  std::vector<std::uint32_t> all(n);
  std::iota(all.begin(), all.end(), 0u);
  const auto candidates = [&](const double* q, int reach, auto&& f) {
    if (std::pow(2.0 * reach + 1.0, dim) < static_cast<double>(n))
      return grid.for_each_candidate(q, reach, f);
    f(std::span<const std::uint32_t>(all));
  };

  // Initial candidate ball weights (nothing covered yet).  This is the
  // O(Σ|ball_r|) bulk of the pass; each point's count is independent and
  // writes only cand[i], so the range fans out over the pool (deterministic
  // chunks, disjoint writes — bit-identical at every thread count).
  std::vector<std::int64_t> cand(n, 0);
  const auto init_cand = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const double* q = pts[i].p.coords().data();
      std::int64_t sum = 0;
      candidates(q, 1, [&](std::span<const std::uint32_t> cell) {
        sum += kernels::count_within<N>(buf, cell.data(), cell.size(), q,
                                        r_key, w.data(), nullptr);
      });
      cand[i] = sum;
    }
  };
  if (pool != nullptr && pool->num_threads() > 1)
    pool->parallel_for(n, /*grain=*/256, init_cand);
  else
    init_cand(0, n);

  std::vector<std::uint32_t> ball;  // flattened 3r-ball candidates, reused
  for (int t = 0; t < k && uncovered_w > z; ++t) {
    // argmax over cand, first max wins — identical tie-breaking to the
    // reference's per-round rescan.
    std::int64_t best_w = -1;
    std::size_t best_i = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (cand[i] > best_w) {
        best_w = cand[i];
        best_i = i;
      }
    }
    out.centers.push_back(pts[best_i].p);
    // Remove everything inside the expanded ball b(best_i, 3r), paying the
    // candidate-weight decrements for each newly covered point as we go.
    // The (2·reach3+1)^d neighbor cells are flattened into one candidate
    // list (concatenation preserves cell enumeration order, and the grid
    // never repeats an index) so the distance filter fans out over the
    // whole ball; the mutation applies serially in that same order.
    const double* qc = pts[best_i].p.coords().data();
    ball.clear();
    candidates(qc, reach3, [&](std::span<const std::uint32_t> cell) {
      ball.insert(ball.end(), cell.begin(), cell.end());
    });
    const std::int64_t removed = kernels::mark_within_parallel<N>(
        buf, ball.data(), ball.size(), qc, r3_key, w.data(), covered.data(),
        [&](std::uint32_t j) {
          const double* qj = pts[j].p.coords().data();
          const std::int64_t wj = w[j];
          candidates(
              qj, 1, [&](std::span<const std::uint32_t> inner) {
                for (const std::uint32_t i : inner) {
                  if (buf.key_to<N>(i, qj) <= r_key) cand[i] -= wj;
                }
              });
        },
        pool);
    uncovered_w -= removed;
  }
  out.uncovered = uncovered_w;
  out.success = uncovered_w <= z;
  return out;
}

}  // namespace

CharikarRun charikar_run(const WeightedSet& pts, int k, std::int64_t z,
                         double r, const Metric& metric, ThreadPool* pool,
                         const kernels::PointBuffer* buffer) {
  KC_EXPECTS(k >= 1);
  KC_EXPECTS(r >= 0.0);
  if (pts.empty()) return CharikarRun{{}, 0, z >= 0};
  return kernels::with_norm(metric.norm(), [&]<Norm N>() {
    return charikar_run_grid<N>(pts, k, z, r, pool, buffer);
  });
}

CharikarResult charikar_oracle(const WeightedSet& pts, int k, std::int64_t z,
                               const Metric& metric,
                               const ExecContext& exec) {
  KC_EXPECTS(k >= 1);
  KC_EXPECTS(z >= 0);
  CharikarResult res;
  if (pts.empty()) return res;

  std::int64_t total_w = 0;
  for (const auto& wp : pts) total_w += wp.w;
  if (total_w <= z) {
    // Everything may be an outlier: optimal radius is 0.
    res.radius = 0.0;
    res.centers.push_back(pts.front().p);
    return res;
  }

  // Upper bound for the ladder: covering radius of a single ball centred at
  // pts[0]; optk,z ≤ opt1,0 ≤ hi.
  double hi = 0.0;
  for (const auto& wp : pts) hi = std::max(hi, metric.dist(pts.front().p, wp.p));
  // kc-lint-allow(numerics): hi is a max of exact distances; 0.0 means all
  // points coincide and the ladder below would be empty.
  if (hi == 0.0) {
    // All points coincide.
    res.radius = 0.0;
    res.centers.push_back(pts.front().p);
    return res;
  }

  // Candidate ladder: c_j = hi / (1+β)^j, j = 0..kMaxLadder.  Success is
  // monotone (larger radius keeps succeeding), so the predicate is true on
  // a prefix of j; binary-search the boundary.
  const double growth = 1.0 + kCharikarBeta;
  auto candidate = [&](int j) { return hi / std::pow(growth, j); };

  // One SoA pack shared by every ladder guess: use the caller's prebuilt
  // buffer when it matches, else pack here — never once per guess.
  kernels::PointBuffer local;
  const kernels::PointBuffer* buffer =
      &kernels::mirror_or_pack(pts, exec.buffer, local);

  CharikarRun best_run = charikar_run(pts, k, z, candidate(0), metric,
                                      exec.pool, buffer);
  KC_ENSURES(best_run.success);  // r = hi ≥ opt always succeeds
  int best_j = 0;

  int lo_j = 0, hi_j = kMaxLadder;
  while (lo_j < hi_j) {
    const int mid = lo_j + (hi_j - lo_j + 1) / 2;
    CharikarRun run = charikar_run(pts, k, z, candidate(mid), metric,
                                   exec.pool, buffer);
    if (run.success) {
      lo_j = mid;
      best_run = std::move(run);
      best_j = mid;
    } else {
      hi_j = mid - 1;
    }
  }

  res.radius = 3.0 * candidate(best_j);
  res.centers = std::move(best_run.centers);
  KC_ENSURES(!res.centers.empty());
  return res;
}

}  // namespace kc
