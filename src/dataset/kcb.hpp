// The `.kcb` on-disk dataset format: a direct image of the column-major
// `PointBuffer`, built to be mmap'ed and consumed zero-copy.
//
// Everything in this repo streams coordinates column-wise, so the file
// stores exactly what the kernels read: `dim` contiguous float64 columns of
// length `n` (stride = n).  A reader maps the file and hands out
// `BufferView` slices whose `col(j)` pointers alias the mapping —
// no parse, no re-pack, no copy; the OS page cache is the only buffer.
//
// Layout (version 1, all integers little-or-big endian as written — the
// header carries an endianness marker and readers reject a mismatch rather
// than byte-swapping):
//
//   [0, 64)              KcbHeader (fixed 64 bytes, see below)
//   [64, 64 + 16·dim)    bounding box: dim float64 lows, then dim highs
//                        (exact per-coordinate min/max — lets consumers
//                        that need global extent, e.g. the dynamic
//                        pipeline's [Δ]^d discretization, run in one pass)
//   [4096, 4096 + 8·n·dim)
//                        the data image: column j occupies the 8·n bytes
//                        starting at 4096 + j·8·n.  The 4096 data offset
//                        page-aligns every column start for mmap +
//                        posix_madvise.
//
// Integrity: `header_checksum` (FNV-1a 64 over the header bytes with the
// checksum field itself zeroed) is validated on every open; `data_checksum`
// (FNV-1a 64 over the dim per-column FNV-1a digests, each digest taken over
// that column's bytes in row order) is validated on demand
// (`MappedKcb::verify_data`) so opening a 10M-point file stays O(1) —
// checksumming it would fault in every page and defeat out-of-core reads.
//
// Weights: none.  A `.kcb` file is a unit-weight point set (the scale
// pipelines consume raw streams); weighted instances stay on the CSV path.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/point_buffer.hpp"

namespace kc::dataset {

inline constexpr char kKcbMagic[4] = {'K', 'C', 'B', '1'};
inline constexpr std::uint32_t kKcbEndianMarker = 0x01020304u;
inline constexpr std::uint32_t kKcbVersion = 1;
inline constexpr std::uint64_t kKcbDataOffset = 4096;

/// Fixed 64-byte header at offset 0 of every `.kcb` file.
struct KcbHeader {
  char magic[4];            ///< "KCB1"
  std::uint32_t endian;     ///< kKcbEndianMarker as written by the producer
  std::uint32_t version;    ///< kKcbVersion
  std::uint32_t dtype;      ///< 0 = float64 (the only dtype of version 1)
  std::uint32_t dim;        ///< columns
  std::uint32_t reserved;   ///< 0
  std::uint64_t n;          ///< rows
  std::uint64_t data_checksum;    ///< combined per-column FNV-1a (see above)
  std::uint64_t header_checksum;  ///< FNV-1a of this struct with field = 0
  char pad[16];             ///< zero
};
static_assert(sizeof(KcbHeader) == 64, "KcbHeader must be exactly 64 bytes");

/// FNV-1a 64-bit over a byte range (the format's checksum primitive).
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t len,
                                  std::uint64_t seed = 0xcbf29ce484222325ull);

/// Streaming `.kcb` writer with a fixed memory budget: rows are buffered in
/// a bounded SoA chunk and flushed column-piece-wise via positioned writes,
/// so writing a 10M-point file holds only the chunk in memory.  `n` must be
/// known up front (column offsets depend on it); the text importers count
/// rows in a first pass.
///
/// Two mutually exclusive filling modes:
///  * row mode — `append(coords)` n times (CSV importer, generators);
///  * column mode — for each j in 0..dim-1: `begin_column(j)`,
///    `column_value(v)` n times (Matrix-Market dense arrays arrive in
///    exactly this order).
/// Either way, `finish()` seals the file (bbox, checksums, header).
class KcbWriter {
 public:
  /// Opens `path` for writing (truncates).  Throws std::runtime_error on
  /// I/O failure.  `chunk_rows` bounds the row-mode buffer (per column).
  KcbWriter(const std::string& path, int dim, std::uint64_t n,
            std::size_t chunk_rows = 1u << 16);
  ~KcbWriter();

  KcbWriter(const KcbWriter&) = delete;
  KcbWriter& operator=(const KcbWriter&) = delete;

  /// Row mode: appends one row of `dim()` finite coordinates.
  void append(const double* coords);

  /// Column mode: starts column j (columns must arrive in ascending order,
  /// each immediately after the previous one is complete).
  void begin_column(int j);
  /// Column mode: appends the next value of the current column.
  void column_value(double v);

  /// Flushes, writes bbox + checksums + header, closes.  Throws if the row
  /// / value count does not match the promised n·dim.
  void finish();

  [[nodiscard]] int dim() const noexcept { return dim_; }
  [[nodiscard]] std::uint64_t n() const noexcept { return n_; }

 private:
  void write_at(std::uint64_t offset, const void* data, std::size_t len);
  void flush_rows();
  void flush_column();

  std::string path_;
  int fd_ = -1;
  int dim_ = 0;
  std::uint64_t n_ = 0;
  std::size_t chunk_rows_ = 0;

  // Row mode.
  std::vector<double> chunk_;  ///< SoA: column j at [j·chunk_rows_, …)
  std::size_t buffered_ = 0;
  std::uint64_t rows_written_ = 0;

  // Column mode.
  int current_col_ = -1;
  std::uint64_t col_written_ = 0;
  std::vector<double> colbuf_;

  bool column_mode_ = false;
  bool finished_ = false;

  std::vector<std::uint64_t> col_fnv_;  ///< per-column running digests
  std::vector<double> box_lo_, box_hi_;
};

/// Read-only mmap of a `.kcb` file.  Opening validates the header (magic,
/// endianness, version, dtype, header checksum, exact file size) and that
/// the bounding box lies within ±Point::kMaxAbsCoordinate, and advises the
/// kernel of sequential access; `view()` aliases the mapping.
class MappedKcb {
 public:
  /// Throws std::runtime_error with a precise reason on any malformed file.
  explicit MappedKcb(const std::string& path);
  ~MappedKcb();

  MappedKcb(MappedKcb&& other) noexcept;
  MappedKcb& operator=(MappedKcb&&) = delete;
  MappedKcb(const MappedKcb&) = delete;
  MappedKcb& operator=(const MappedKcb&) = delete;

  [[nodiscard]] int dim() const noexcept { return static_cast<int>(header_.dim); }
  [[nodiscard]] std::uint64_t size() const noexcept { return header_.n; }
  [[nodiscard]] const KcbHeader& header() const noexcept { return header_; }
  [[nodiscard]] const std::vector<double>& box_lo() const noexcept {
    return box_lo_;
  }
  [[nodiscard]] const std::vector<double>& box_hi() const noexcept {
    return box_hi_;
  }

  /// Zero-copy view of the whole file: col(j) points into the mapping at
  /// file offset 4096 + j·8·n.
  [[nodiscard]] kernels::BufferView view() const noexcept {
    return kernels::BufferView(data_, header_.n, header_.n, dim());
  }

  /// First mapped data element (for pointer-identity tests).
  [[nodiscard]] const double* data() const noexcept { return data_; }

  /// Recomputes the per-column digests over the mapping and compares with
  /// the header (full sequential read — on demand only).
  [[nodiscard]] bool verify_data() const;

  /// posix_madvise(WILLNEED) on rows [offset, offset+count) of every
  /// column — the ChunkedReader's lookahead prefetch.
  void prefetch(std::uint64_t offset, std::uint64_t count) const;

  /// madvise(DONTNEED) on rows [offset, offset+count) of every column: the
  /// ChunkedReader's trailing-edge page drop, which keeps residency — and
  /// hence peak RSS — O(chunk budget) at any file size.  Non-destructive:
  /// the mapping is read-only, so a released page re-faults from the page
  /// cache / file on the next access.  Page ranges are shrunk inward to
  /// whole pages so neighbouring live chunks are never zapped.
  void release(std::uint64_t offset, std::uint64_t count) const;

 private:
  KcbHeader header_{};
  std::vector<double> box_lo_, box_hi_;
  void* map_ = nullptr;
  std::size_t map_len_ = 0;
  const double* data_ = nullptr;
};

/// Writes an in-memory buffer as `.kcb` (tests, small conversions).
void write_kcb(const std::string& path, const kernels::PointBuffer& buf);

}  // namespace kc::dataset
