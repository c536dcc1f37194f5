// Differential suite pinning the vectorized SoA kernels to the scalar
// reference paths (geometry/kernels.hpp, geometry/point_buffer.hpp).
//
// The contract under test: the dimension-dispatched kernel bodies
// (compute_keys / relax_min_keys / min_keys / first_within), `raw_key` and
// `key_to` are BIT-IDENTICAL to a freshly written AoS scalar loop, across
// norms × every dimension 1–9 (the unrolled D ∈ {1, 2, 3, 4, 8} and the
// runtime-dimension D = 0 bodies, including d = 9 > Point::kMaxDim) ×
// sizes covering SIMD lane-width tails × unaligned slice offsets.
//
// Sizes are chosen around the interesting boundaries: SSE/AVX lane counts
// (2/4/8 doubles), the first_within block (kFirstWithinBlock = 128), and
// ±1 off each so remainder loops execute.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "geometry/kernels.hpp"
#include "geometry/point_buffer.hpp"
#include "util/rng.hpp"

namespace kc {
namespace {

const Norm kNorms[] = {Norm::L2, Norm::Linf, Norm::L1};
// Every dimension: 1–4 and 8 take the unrolled bodies, 5–7 and 9 (past
// Point::kMaxDim) the runtime-dimension ones.
const int kDims[] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
const std::size_t kSizes[] = {1,  2,  3,  5,  7,   8,   15,  16, 17,
                              31, 33, 64, 127, 128, 129, 257};

/// Row-major coordinate rows, quantized to a coarse lattice so exact ties
/// and exactly-on-the-threshold keys are common (where a sloppy
/// reimplementation diverges from the reference).
std::vector<std::vector<double>> lattice_rows(std::size_t n, int dim,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows(n, std::vector<double>(dim));
  for (auto& row : rows)
    for (int j = 0; j < dim; ++j)
      row[j] = 0.25 * static_cast<double>(rng.uniform_int(-20, 20));
  // A few exact duplicates: guarantees ties in far-point scans.
  if (n >= 4) {
    rows[n - 1] = rows[0];
    rows[n / 2] = rows[1 % n];
  }
  return rows;
}

std::vector<double> lattice_query(int dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> q(dim);
  for (int j = 0; j < dim; ++j)
    q[j] = 0.25 * static_cast<double>(rng.uniform_int(-20, 20));
  return q;
}

kernels::PointBuffer pack(const std::vector<std::vector<double>>& rows,
                          int dim) {
  kernels::PointBuffer buf(dim);
  buf.reserve(rows.size());
  for (const auto& row : rows) buf.append(row.data());
  return buf;
}

/// Freshly written AoS scalar key, dimension-ascending — the historical
/// reference the whole kernel layer is pinned to.
double scalar_key(Norm norm, const double* a, const double* q, int dim) {
  if (norm == Norm::L2) {
    double s = 0.0;
    for (int j = 0; j < dim; ++j) {
      const double diff = a[j] - q[j];
      s += diff * diff;
    }
    return s;
  }
  if (norm == Norm::Linf) {
    double m = 0.0;
    for (int j = 0; j < dim; ++j) {
      const double diff = std::fabs(a[j] - q[j]);
      if (diff > m) m = diff;
    }
    return m;
  }
  double s = 0.0;
  for (int j = 0; j < dim; ++j) s += std::fabs(a[j] - q[j]);
  return s;
}

template <Norm N, typename Buf>
void check_keys_bitwise(const Buf& buf,
                        const std::vector<std::vector<double>>& rows,
                        const std::vector<double>& q, int dim) {
  const std::size_t n = rows.size();
  std::vector<double> dispatched(n, -1.0);
  kernels::compute_keys<N>(buf, q.data(), dispatched.data());
  for (std::size_t i = 0; i < n; ++i) {
    const double ref = scalar_key(N, rows[i].data(), q.data(), dim);
    EXPECT_EQ(dispatched[i], ref) << "dim " << dim << " n " << n << " i " << i;
    EXPECT_EQ(kernels::raw_key<N>(rows[i].data(), q.data(), dim), ref)
        << "dim " << dim << " n " << n << " i " << i;
    EXPECT_EQ(buf.template key_to<N>(i, q.data()), ref);
  }
}

TEST(Simd, DispatchedKeysBitIdenticalToScalarAllDims) {
  for (const int dim : kDims) {
    for (const std::size_t n : kSizes) {
      const auto rows = lattice_rows(n, dim, 1000 + n * 10 + dim);
      const auto q = lattice_query(dim, 17 * dim + n);
      const auto buf = pack(rows, dim);
      ASSERT_EQ(buf.size(), n);
      check_keys_bitwise<Norm::L2>(buf, rows, q, dim);
      check_keys_bitwise<Norm::Linf>(buf, rows, q, dim);
      check_keys_bitwise<Norm::L1>(buf, rows, q, dim);
    }
  }
}

TEST(Simd, UnalignedViewOffsetsBitIdentical) {
  const std::size_t n = 300;
  for (const int dim : kDims) {
    const auto rows = lattice_rows(n, dim, 77 + dim);
    const auto q = lattice_query(dim, 91 + dim);
    const auto buf = pack(rows, dim);
    for (const std::size_t offset : {std::size_t{1}, std::size_t{2},
                                     std::size_t{3}, std::size_t{5},
                                     std::size_t{7}, std::size_t{13},
                                     std::size_t{17}, std::size_t{31}}) {
      for (const std::size_t count :
           {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{33},
            std::size_t{128}, n - offset}) {
        if (offset + count > n) continue;
        const auto view = buf.view(offset, count);
        std::vector<double> out(count, -1.0);
        kernels::compute_keys<Norm::L2>(view, q.data(), out.data());
        for (std::size_t i = 0; i < count; ++i)
          EXPECT_EQ(out[i], scalar_key(Norm::L2, rows[offset + i].data(),
                                       q.data(), dim))
              << "dim " << dim << " offset " << offset << " i " << i;
        // Nested subview: rows [offset+1, offset+count) through two hops.
        if (count >= 2) {
          const auto nested = view.subview(1, count - 1);
          std::vector<double> out2(count - 1, -1.0);
          kernels::compute_keys<Norm::Linf>(nested, q.data(), out2.data());
          for (std::size_t i = 0; i + 1 < count; ++i)
            EXPECT_EQ(out2[i], scalar_key(Norm::Linf,
                                          rows[offset + 1 + i].data(),
                                          q.data(), dim));
        }
      }
    }
  }
}

TEST(Simd, RelaxMatchesScalarSweepWithTies) {
  for (const int dim : kDims) {
    for (const Norm norm : kNorms) {
      const std::size_t n = 257;
      const auto rows = lattice_rows(n, dim, 311 + dim);
      const auto buf = pack(rows, dim);

      std::vector<double> keys(n, std::numeric_limits<double>::infinity());
      std::vector<double> ref_keys = keys;
      std::vector<std::uint32_t> assign(n, 0), ref_assign(n, 0);

      for (std::uint32_t label = 0; label < 6; ++label) {
        const std::vector<double>& c = rows[(label * 41) % n];
        const kernels::RelaxResult rr =
            kernels::with_norm(norm, [&]<Norm N>() {
              return kernels::relax_min_keys<N>(buf, c.data(), label,
                                                keys.data(), assign.data());
            });
        // Historical scalar sweep: branchy relax + inline first-max-wins
        // far tracking.  Duplicated rows make exact far-key ties real.
        double far_key = -1.0;
        std::size_t far_idx = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const double k2 = scalar_key(norm, rows[i].data(), c.data(), dim);
          if (k2 < ref_keys[i]) {
            ref_keys[i] = k2;
            ref_assign[i] = label;
          }
          if (ref_keys[i] > far_key) {
            far_key = ref_keys[i];
            far_idx = i;
          }
        }
        EXPECT_EQ(rr.far_key, far_key) << "dim " << dim << " label " << label;
        EXPECT_EQ(rr.far_idx, far_idx) << "dim " << dim << " label " << label;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(keys[i], ref_keys[i]) << "dim " << dim << " i " << i;
          ASSERT_EQ(assign[i], ref_assign[i]) << "dim " << dim << " i " << i;
        }
      }
    }
  }
}

TEST(Simd, MinKeysMatchesPerPointScalarMin) {
  for (const int dim : kDims) {
    for (const Norm norm : kNorms) {
      const std::size_t n = 129;
      const auto rows = lattice_rows(n, dim, 53 + dim);
      const auto buf = pack(rows, dim);
      const std::size_t centers[] = {0, 3, n / 2, n - 1};

      std::vector<double> keys(n, std::numeric_limits<double>::infinity());
      for (const std::size_t c : centers)
        kernels::with_norm(norm, [&]<Norm N>() {
          kernels::min_keys<N>(buf, rows[c].data(), keys.data());
        });
      for (std::size_t i = 0; i < n; ++i) {
        double ref = std::numeric_limits<double>::infinity();
        for (const std::size_t c : centers) {
          const double k2 =
              scalar_key(norm, rows[i].data(), rows[c].data(), dim);
          if (k2 < ref) ref = k2;
        }
        EXPECT_EQ(keys[i], ref) << "dim " << dim << " i " << i;
      }
    }
  }
}

TEST(Simd, FirstWithinMatchesScalarEarlyExitScan) {
  // Sizes straddle the kFirstWithinBlock = 128 blocking.
  for (const int dim : kDims) {
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{7}, std::size_t{127}, std::size_t{128},
          std::size_t{129}, std::size_t{255}, std::size_t{256},
          std::size_t{300}}) {
      const auto rows = lattice_rows(n, dim, 600 + n + dim);
      const auto q = lattice_query(dim, 5 * n + dim);
      const auto buf = pack(rows, dim);
      // Thresholds: impossible, exact key of a mid row (boundary tie,
      // `<=` must hit), just below that key, and +infinity.
      const double mid_key =
          scalar_key(Norm::L2, rows[n / 2].data(), q.data(), dim);
      const double thresholds[] = {-1.0, mid_key,
                                   std::nextafter(mid_key, -1.0),
                                   std::numeric_limits<double>::infinity()};
      for (const double t : thresholds) {
        std::size_t ref = n;
        for (std::size_t i = 0; i < n; ++i) {
          if (scalar_key(Norm::L2, rows[i].data(), q.data(), dim) <= t) {
            ref = i;
            break;
          }
        }
        EXPECT_EQ(kernels::first_within<Norm::L2>(buf, q.data(), t), ref)
            << "dim " << dim << " n " << n << " thresh " << t;
      }
    }
  }
}

TEST(Simd, FirstWithinOnSlicesMatchesScalar) {
  const std::size_t n = 300;
  const int dim = 3;
  const auto rows = lattice_rows(n, dim, 415);
  const auto q = lattice_query(dim, 416);
  const auto buf = pack(rows, dim);
  for (const std::size_t offset : {std::size_t{0}, std::size_t{17}}) {
    const std::size_t count = n - 2 * offset;
    const auto view = buf.view(offset, count);
    const double t =
        scalar_key(Norm::L2, rows[offset + count / 3].data(), q.data(), dim);
    std::size_t ref = count;
    for (std::size_t i = 0; i < count; ++i) {
      if (scalar_key(Norm::L2, rows[offset + i].data(), q.data(), dim) <= t) {
        ref = i;
        break;
      }
    }
    EXPECT_EQ(kernels::first_within<Norm::L2>(view, q.data(), t), ref);
  }
}

}  // namespace
}  // namespace kc
