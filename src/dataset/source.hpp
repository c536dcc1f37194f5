// Chunked dataset sources: the contract that feeds the streaming/dynamic
// pipelines (and the MPC partitioner's gather) without ever materializing
// the full point set.
//
// A `DataSource` serves column-major chunks of a fixed, finite point
// sequence.  The two implementations bracket the design space:
//
//  * `KcbSource` — an mmap'ed `.kcb` file.  Chunks are zero-copy
//    `BufferView`s aliasing the mapping (pointer-identity is a tested
//    contract); `prefetch` issues posix_madvise(WILLNEED) for the next
//    chunk while the current one is consumed.
//  * `GeneratedSource` — a deterministic on-the-fly workload at arbitrary
//    n.  Point i is a pure function of (config, i) (counter-based
//    splitmix64, no sequential RNG state), so the content is independent
//    of chunking, and two passes — or two differently-budgeted readers —
//    see identical bytes.  Chunks materialize into two alternating
//    fixed-size slots (the double buffer).
//
// `ChunkedReader` drives a source sequentially under a fixed memory
// budget: it sizes chunks so that two slots fit the budget, hands out one
// chunk per `next`, and prefetches the following chunk's range before
// returning — by the time the caller finishes streaming chunk i, chunk
// i+1's pages are (best effort) resident.  Peak memory is O(budget),
// independent of n: that is the invariant bench_scale's RSS trajectory
// pins.
//
// `chunked_radius_with_outliers` feeds each chunk to core/cost.hpp's one
// evaluation selector; it owns no evaluation code.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "dataset/kcb.hpp"
#include "geometry/metric.hpp"
#include "geometry/point_buffer.hpp"

namespace kc::dataset {

/// A finite sequence of unit-weight points served in column-major chunks.
class DataSource {
 public:
  virtual ~DataSource() = default;

  [[nodiscard]] virtual int dim() const = 0;
  [[nodiscard]] virtual std::uint64_t size() const = 0;

  /// Exact per-coordinate bounding box over all points (min/max — the same
  /// values `Box::extend` over the materialized set would produce), so
  /// consumers needing global extent (the dynamic pipeline's [Δ]^d
  /// discretization) stay single-pass.
  [[nodiscard]] virtual const std::vector<double>& box_lo() const = 0;
  [[nodiscard]] virtual const std::vector<double>& box_hi() const = 0;

  /// Rows [offset, offset+count); count ≥ 1, offset+count ≤ size().  The
  /// returned view stays valid until the *second* following chunk() call
  /// (double-buffer contract; mmap-backed views are valid for the source's
  /// lifetime).
  [[nodiscard]] virtual kernels::BufferView chunk(
      std::uint64_t offset, std::size_t count) = 0;

  /// Advisory: the caller will read rows [offset, offset+count) soon.
  virtual void prefetch(std::uint64_t offset, std::size_t count) {
    (void)offset;
    (void)count;
  }

  /// Advisory: the caller is done with rows [offset, offset+count) — a
  /// previously returned chunk past its validity window.  Mmap-backed
  /// sources drop the pages (MappedKcb::release) so peak RSS stays
  /// O(chunk budget) at any n; in-memory sources ignore it.
  virtual void release(std::uint64_t offset, std::size_t count) {
    (void)offset;
    (void)count;
  }

  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Zero-copy source over an mmap'ed `.kcb` file.
class KcbSource final : public DataSource {
 public:
  explicit KcbSource(const std::string& path)
      : map_(path), path_(path) {}

  [[nodiscard]] int dim() const override { return map_.dim(); }
  [[nodiscard]] std::uint64_t size() const override { return map_.size(); }
  [[nodiscard]] const std::vector<double>& box_lo() const override {
    return map_.box_lo();
  }
  [[nodiscard]] const std::vector<double>& box_hi() const override {
    return map_.box_hi();
  }
  [[nodiscard]] kernels::BufferView chunk(
      std::uint64_t offset, std::size_t count) override;
  void prefetch(std::uint64_t offset, std::size_t count) override {
    map_.prefetch(offset, count);
  }
  void release(std::uint64_t offset, std::size_t count) override {
    map_.release(offset, count);
  }
  [[nodiscard]] std::string describe() const override { return path_; }

  // kc-lint-allow(exports): KcbFormatTest.ChunksAliasTheMappingPointerIdentity
  // checks that chunks point into this mapping, not into a copy.
  [[nodiscard]] const MappedKcb& mapped() const noexcept { return map_; }

 private:
  MappedKcb map_;
  std::string path_;
};

/// Configuration of the deterministic generated source (no certified
/// optimum bracket — this is the scale workload, not the planted one).
struct GeneratedConfig {
  std::uint64_t n = 1'000'000;
  int dim = 2;
  int k = 3;               ///< clusters on a lattice of pitch `separation`
  double cluster_radius = 1.0;
  double separation = 40.0;       ///< × cluster_radius between lattice sites
  std::uint32_t outlier_permille = 2;  ///< ~2/1000 points are far outliers
  std::uint64_t seed = 1;
};

/// Deterministic on-the-fly source: point i is a pure function of
/// (config, i), so content is chunking-invariant and reproducible across
/// machines (integer hashing + exact double arithmetic only).
class GeneratedSource final : public DataSource {
 public:
  explicit GeneratedSource(const GeneratedConfig& cfg);

  [[nodiscard]] int dim() const override { return cfg_.dim; }
  [[nodiscard]] std::uint64_t size() const override { return cfg_.n; }
  [[nodiscard]] const std::vector<double>& box_lo() const override {
    return box_lo_;
  }
  [[nodiscard]] const std::vector<double>& box_hi() const override {
    return box_hi_;
  }
  [[nodiscard]] kernels::BufferView chunk(
      std::uint64_t offset, std::size_t count) override;
  [[nodiscard]] std::string describe() const override;

 private:
  /// Point i's coordinates (length dim) — the pure per-index function.
  void point_at(std::uint64_t i, double* out) const;

  GeneratedConfig cfg_;
  std::vector<double> centers_;  ///< k lattice centers, row-major k×dim
  std::vector<double> box_lo_, box_hi_;
  int per_axis_ = 1;             ///< lattice sites per axis
  std::uint64_t seed_mix_ = 0;   ///< pre-mixed seed of the per-index hash
  kernels::PointBuffer slots_[2];  ///< double buffer for chunk views
  std::vector<double> row_;        ///< one-row staging scratch
  int active_ = 0;
};

/// Options of the chunked streaming pass.
struct ReaderOptions {
  /// Total chunk memory (two slots).  The reader derives
  /// chunk_points = budget / (2 · 8 · dim), floored at 1024.
  std::size_t budget_bytes = 32u << 20;
  /// Explicit chunk size in points; overrides the budget when nonzero
  /// (chunk-boundary tests sweep this).
  std::size_t chunk_points = 0;
};

/// Sequential fixed-budget chunk iterator with one-chunk lookahead
/// prefetch.
class ChunkedReader {
 public:
  struct Chunk {
    kernels::BufferView view;
    std::uint64_t offset = 0;  ///< row index of view row 0 in the source
  };

  explicit ChunkedReader(DataSource& src, const ReaderOptions& opts = {});

  /// Fills `out` with the next chunk; false at end of the sequence.  Also
  /// releases the chunk handed out two calls ago (the double-buffer
  /// validity window has passed), so an mmap-backed pass holds at most a
  /// bounded number of chunks resident regardless of n.
  bool next(Chunk& out);

  void reset() noexcept {
    pos_ = 0;
    last_count_ = old_count_ = 0;
  }

 private:
  DataSource& src_;
  std::size_t chunk_ = 0;
  std::uint64_t pos_ = 0;
  // The two most recently returned chunks (offset, count): `last_` is
  // still inside the validity contract, `old_` is released on the next
  // call.  count == 0 marks an empty slot.
  std::uint64_t last_offset_ = 0, old_offset_ = 0;
  std::size_t last_count_ = 0, old_count_ = 0;
};

/// Optional per-chunk rewrite for `chunked_radius_with_outliers`: fills
/// `scratch` (cleared by the caller) with the transformed image of `in`
/// — e.g. the dynamic pipeline's [Δ]^d discretization.
using ChunkTransform = std::function<void(
    const kernels::BufferView& in, kernels::PointBuffer& scratch)>;

/// Exact `radius_with_outliers` over a source, one chunk at a time: the
/// smallest r such that at most z points are farther than r from their
/// nearest center.  Each chunk (after the optional transform) is one batch
/// of core/cost.hpp's `OutlierTail`, the selector the in-memory evaluation
/// uses, so the result is bit-identical to it.  Peak memory is O(chunk),
/// independent of n.
[[nodiscard]] double chunked_radius_with_outliers(
    DataSource& src, const PointSet& centers, std::int64_t z,
    const Metric& metric, const ReaderOptions& opts = {},
    const ChunkTransform& transform = nullptr);

/// Streams a source into a `.kcb` file (fixed memory; returns points
/// written).
std::uint64_t write_kcb(const std::string& path, DataSource& src,
                        const ReaderOptions& opts = {});

}  // namespace kc::dataset
