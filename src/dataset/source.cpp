#include "dataset/source.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "core/cost.hpp"
#include "util/check.hpp"

namespace kc::dataset {

// ---------------------------------------------------------------------------
// KcbSource

kernels::BufferView KcbSource::chunk(std::uint64_t offset,
                                     std::size_t count) {
  KC_EXPECTS(count >= 1 && offset + count <= map_.size());
  // subview keeps the mapping's stride (= n), so col(j) pointers alias the
  // file image directly — zero-copy by construction.
  return map_.view().subview(static_cast<std::size_t>(offset), count);
}

// ---------------------------------------------------------------------------
// GeneratedSource

namespace {

// Counter-based mixing (same construction as the fault plan's hashing): a
// pure u64 -> u64 finalizer, so draw streams are functions of (seed, index)
// with no sequential state.
inline std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Uniform in [0, 1) from the top 53 bits (exact double arithmetic —
// reproducible across platforms).
inline double u01(std::uint64_t u) noexcept {
  return static_cast<double>(u >> 11) * 0x1.0p-53;
}

}  // namespace

GeneratedSource::GeneratedSource(const GeneratedConfig& cfg) : cfg_(cfg) {
  KC_EXPECTS(cfg_.n >= 1);
  KC_EXPECTS(cfg_.dim >= 1);
  KC_EXPECTS(cfg_.k >= 1);
  KC_EXPECTS(cfg_.cluster_radius > 0.0 && cfg_.separation > 0.0);

  // Smallest lattice with per_axis^dim >= k sites.
  int per_axis = 1;
  auto sites = [&](int m) {
    std::uint64_t s = 1;
    for (int j = 0; j < cfg_.dim; ++j) {
      s *= static_cast<std::uint64_t>(m);
      if (s >= static_cast<std::uint64_t>(cfg_.k)) return s;
    }
    return s;
  };
  while (sites(per_axis) < static_cast<std::uint64_t>(cfg_.k)) ++per_axis;

  const double pitch = cfg_.separation * cfg_.cluster_radius;
  centers_.assign(static_cast<std::size_t>(cfg_.k) *
                      static_cast<std::size_t>(cfg_.dim),
                  0.0);
  for (int c = 0; c < cfg_.k; ++c) {
    int idx = c;
    for (int j = 0; j < cfg_.dim; ++j) {
      centers_[static_cast<std::size_t>(c) * cfg_.dim + j] =
          pitch * (idx % per_axis);
      idx /= per_axis;
    }
  }
  per_axis_ = per_axis;
  seed_mix_ = splitmix64(cfg_.seed ^ 0x6b63622d67656e31ull);

  slots_[0] = kernels::PointBuffer(cfg_.dim);
  slots_[1] = kernels::PointBuffer(cfg_.dim);
  row_.resize(static_cast<std::size_t>(cfg_.dim));

  // Exact bbox in one streaming pass (point_at is pure, so this pass sees
  // exactly the bytes every later chunked pass will see).
  box_lo_.assign(static_cast<std::size_t>(cfg_.dim),
                 std::numeric_limits<double>::infinity());
  box_hi_.assign(static_cast<std::size_t>(cfg_.dim),
                 -std::numeric_limits<double>::infinity());
  for (std::uint64_t i = 0; i < cfg_.n; ++i) {
    point_at(i, row_.data());
    for (int j = 0; j < cfg_.dim; ++j) {
      box_lo_[static_cast<std::size_t>(j)] =
          std::min(box_lo_[static_cast<std::size_t>(j)], row_[j]);
      box_hi_[static_cast<std::size_t>(j)] =
          std::max(box_hi_[static_cast<std::size_t>(j)], row_[j]);
    }
  }
}

void GeneratedSource::point_at(std::uint64_t i, double* out) const {
  std::uint64_t s = splitmix64(seed_mix_ ^ (i * 0xd1342543de82ef95ull));
  const auto next = [&s]() noexcept { return s = splitmix64(s); };
  const double pitch = cfg_.separation * cfg_.cluster_radius;
  if (next() % 1000 < cfg_.outlier_permille) {
    // Far outlier: uniform in a cube that dwarfs the cluster lattice.
    const double half = pitch * (per_axis_ + 2);
    for (int j = 0; j < cfg_.dim; ++j)
      out[j] = (2.0 * u01(next()) - 1.0) * half;
    return;
  }
  const std::uint64_t c = next() % static_cast<std::uint64_t>(cfg_.k);
  const double* ctr = centers_.data() + c * static_cast<std::uint64_t>(cfg_.dim);
  for (int j = 0; j < cfg_.dim; ++j)
    out[j] = ctr[j] + (2.0 * u01(next()) - 1.0) * cfg_.cluster_radius;
}

kernels::BufferView GeneratedSource::chunk(std::uint64_t offset,
                                           std::size_t count) {
  KC_EXPECTS(count >= 1 && offset + count <= cfg_.n);
  kernels::PointBuffer& slot = slots_[active_];
  active_ ^= 1;
  slot.clear();
  slot.reserve(count);
  for (std::uint64_t i = offset; i < offset + count; ++i) {
    point_at(i, row_.data());
    slot.append(row_.data());
  }
  return slot.view();
}

std::string GeneratedSource::describe() const {
  std::ostringstream os;
  os << "generated(n=" << cfg_.n << ", dim=" << cfg_.dim << ", k=" << cfg_.k
     << ", seed=" << cfg_.seed << ")";
  return os.str();
}

// ---------------------------------------------------------------------------
// ChunkedReader

ChunkedReader::ChunkedReader(DataSource& src, const ReaderOptions& opts)
    : src_(src) {
  if (opts.chunk_points != 0) {
    chunk_ = opts.chunk_points;
  } else {
    // Two slots of 8-byte coords per dimension must fit the budget.
    const std::size_t per_point =
        2u * sizeof(double) * static_cast<std::size_t>(src.dim());
    chunk_ = std::max<std::size_t>(1024, opts.budget_bytes / per_point);
  }
  KC_ENSURES(chunk_ >= 1);
}

bool ChunkedReader::next(Chunk& out) {
  const std::uint64_t n = src_.size();
  if (pos_ >= n) return false;
  // Trailing edge: the chunk from two calls ago left the validity window
  // with the previous call — drop its pages before faulting in new ones,
  // so residency stays O(budget) at any n.
  if (old_count_ != 0) src_.release(old_offset_, old_count_);
  old_offset_ = last_offset_;
  old_count_ = last_count_;
  const std::size_t count =
      static_cast<std::size_t>(std::min<std::uint64_t>(chunk_, n - pos_));
  out.view = src_.chunk(pos_, count);
  out.offset = pos_;
  last_offset_ = pos_;
  last_count_ = count;
  pos_ += count;
  // Lookahead: advise the next chunk's pages in while this one streams.
  if (pos_ < n)
    src_.prefetch(pos_,
                  static_cast<std::size_t>(std::min<std::uint64_t>(chunk_, n - pos_)));
  return true;
}

// ---------------------------------------------------------------------------
// Chunked evaluation

double chunked_radius_with_outliers(DataSource& src, const PointSet& centers,
                                    std::int64_t z, const Metric& metric,
                                    const ReaderOptions& opts,
                                    const ChunkTransform& transform) {
  KC_EXPECTS(!centers.empty());
  ChunkedReader reader(src, opts);
  OutlierTail tail(z, metric);
  kernels::PointBuffer scratch(src.dim());
  ChunkedReader::Chunk ch;
  while (reader.next(ch)) {
    if (transform) {
      scratch.clear();
      transform(ch.view, scratch);
    }
    tail.add(transform ? scratch.view() : ch.view, centers);
  }
  return tail.radius();
}

// ---------------------------------------------------------------------------
// Source -> .kcb

std::uint64_t write_kcb(const std::string& path, DataSource& src,
                        const ReaderOptions& opts) {
  KcbWriter writer(path, src.dim(), src.size());
  ChunkedReader reader(src, opts);
  std::vector<double> row(static_cast<std::size_t>(src.dim()));
  ChunkedReader::Chunk ch;
  while (reader.next(ch)) {
    for (std::size_t i = 0; i < ch.view.size(); ++i) {
      for (int j = 0; j < ch.view.dim(); ++j) row[static_cast<std::size_t>(j)] =
          ch.view.col(j)[i];
      writer.append(row.data());
    }
  }
  writer.finish();
  return src.size();
}

}  // namespace kc::dataset
