#include "dataset/kcb.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "geometry/point.hpp"
#include "util/check.hpp"

namespace kc::dataset {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("kcb: " + path + ": " + what);
}

std::uint64_t header_digest(KcbHeader h) {
  h.header_checksum = 0;
  return fnv1a(&h, sizeof h);
}

/// The file's combined data checksum: FNV-1a over the per-column digests in
/// column order (each per-column digest is FNV-1a over that column's bytes
/// in row order — computable incrementally by any write order that fills
/// each column front to back).
std::uint64_t combine_digests(const std::vector<std::uint64_t>& cols) {
  return fnv1a(cols.data(), cols.size() * sizeof(std::uint64_t));
}

/// Checked advisory madvise: the hint may be ignored (ENOMEM under
/// pressure degrades to no readahead / no release), but EINVAL means a
/// misaligned or out-of-range request — a caller bug, not a kernel mood.
void advise(void* addr, std::size_t len, int advice) {
  const int rc = ::posix_madvise(addr, len, advice);
  KC_EXPECTS(rc != EINVAL);
}

}  // namespace

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// KcbWriter
// ---------------------------------------------------------------------------

KcbWriter::KcbWriter(const std::string& path, int dim, std::uint64_t n,
                     std::size_t chunk_rows)
    : path_(path), dim_(dim), n_(n), chunk_rows_(chunk_rows) {
  KC_EXPECTS(dim >= 1);
  KC_EXPECTS(n >= 1);
  KC_EXPECTS(chunk_rows >= 1);
  fd_ = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd_ < 0) fail(path_, std::string("cannot open: ") + std::strerror(errno));
  chunk_.resize(chunk_rows_ * static_cast<std::size_t>(dim_));
  col_fnv_.assign(static_cast<std::size_t>(dim_), 0xcbf29ce484222325ull);
  box_lo_.assign(static_cast<std::size_t>(dim_),
                 std::numeric_limits<double>::infinity());
  box_hi_.assign(static_cast<std::size_t>(dim_),
                 -std::numeric_limits<double>::infinity());
  // Reserve the header region now so a crashed conversion leaves an
  // unmistakably invalid file (zero magic) rather than a truncated-valid one.
  const char zeros[64] = {};
  write_at(0, zeros, sizeof zeros);
}

KcbWriter::~KcbWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void KcbWriter::write_at(std::uint64_t offset, const void* data,
                         std::size_t len) {
  const auto* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t w = ::pwrite(fd_, p, len, static_cast<off_t>(offset));
    if (w < 0) {
      if (errno == EINTR) continue;
      fail(path_, std::string("write failed: ") + std::strerror(errno));
    }
    p += w;
    offset += static_cast<std::uint64_t>(w);
    len -= static_cast<std::size_t>(w);
  }
}

void KcbWriter::flush_rows() {
  if (buffered_ == 0) return;
  for (int j = 0; j < dim_; ++j) {
    const double* col = chunk_.data() + static_cast<std::size_t>(j) * chunk_rows_;
    const std::uint64_t off =
        kKcbDataOffset +
        (static_cast<std::uint64_t>(j) * n_ + rows_written_) * sizeof(double);
    write_at(off, col, buffered_ * sizeof(double));
    col_fnv_[static_cast<std::size_t>(j)] =
        fnv1a(col, buffered_ * sizeof(double),
              col_fnv_[static_cast<std::size_t>(j)]);
  }
  rows_written_ += buffered_;
  buffered_ = 0;
}

void KcbWriter::append(const double* coords) {
  KC_EXPECTS(!finished_ && !column_mode_);
  if (rows_written_ + buffered_ >= n_)
    fail(path_, "more rows appended than the promised n");
  for (int j = 0; j < dim_; ++j) {
    const double v = coords[j];
    KC_EXPECTS(std::isfinite(v) && "non-finite coordinate");
    chunk_[static_cast<std::size_t>(j) * chunk_rows_ + buffered_] = v;
    auto& lo = box_lo_[static_cast<std::size_t>(j)];
    auto& hi = box_hi_[static_cast<std::size_t>(j)];
    if (v < lo) lo = v;
    if (v > hi) hi = v;
  }
  if (++buffered_ == chunk_rows_) flush_rows();
}

void KcbWriter::begin_column(int j) {
  KC_EXPECTS(!finished_);
  KC_EXPECTS(rows_written_ == 0 && buffered_ == 0 && "mixing fill modes");
  column_mode_ = true;
  if (current_col_ >= 0) {
    flush_column();
    if (col_written_ != n_) fail(path_, "previous column incomplete");
  }
  if (j != current_col_ + 1) fail(path_, "columns must arrive in order");
  current_col_ = j;
  col_written_ = 0;
  colbuf_.clear();
  colbuf_.reserve(chunk_rows_);
}

void KcbWriter::column_value(double v) {
  KC_EXPECTS(column_mode_ && current_col_ >= 0 && !finished_);
  KC_EXPECTS(std::isfinite(v) && "non-finite coordinate");
  if (col_written_ + colbuf_.size() >= n_)
    fail(path_, "more values than the promised n in column");
  colbuf_.push_back(v);
  const auto j = static_cast<std::size_t>(current_col_);
  if (v < box_lo_[j]) box_lo_[j] = v;
  if (v > box_hi_[j]) box_hi_[j] = v;
  if (colbuf_.size() == chunk_rows_) {
    const std::uint64_t off =
        kKcbDataOffset +
        (static_cast<std::uint64_t>(current_col_) * n_ + col_written_) *
            sizeof(double);
    write_at(off, colbuf_.data(), colbuf_.size() * sizeof(double));
    col_fnv_[j] = fnv1a(colbuf_.data(), colbuf_.size() * sizeof(double),
                        col_fnv_[j]);
    col_written_ += colbuf_.size();
    colbuf_.clear();
  }
}

void KcbWriter::flush_column() {
  if (colbuf_.empty()) return;
  const auto j = static_cast<std::size_t>(current_col_);
  const std::uint64_t off =
      kKcbDataOffset +
      (static_cast<std::uint64_t>(current_col_) * n_ + col_written_) *
          sizeof(double);
  write_at(off, colbuf_.data(), colbuf_.size() * sizeof(double));
  col_fnv_[j] =
      fnv1a(colbuf_.data(), colbuf_.size() * sizeof(double), col_fnv_[j]);
  col_written_ += colbuf_.size();
  colbuf_.clear();
}

void KcbWriter::finish() {
  KC_EXPECTS(!finished_);
  if (column_mode_) {
    flush_column();
    if (current_col_ != dim_ - 1 || col_written_ != n_)
      fail(path_, "column-mode fill incomplete");
  } else {
    flush_rows();
    if (rows_written_ != n_)
      fail(path_, "fewer rows appended than the promised n");
  }

  // Bounding box, then the sealed header.
  write_at(sizeof(KcbHeader), box_lo_.data(),
           box_lo_.size() * sizeof(double));
  write_at(sizeof(KcbHeader) + box_lo_.size() * sizeof(double),
           box_hi_.data(), box_hi_.size() * sizeof(double));

  KcbHeader h{};
  std::memcpy(h.magic, kKcbMagic, sizeof h.magic);
  h.endian = kKcbEndianMarker;
  h.version = kKcbVersion;
  h.dtype = 0;
  h.dim = static_cast<std::uint32_t>(dim_);
  h.reserved = 0;
  h.n = n_;
  h.data_checksum = combine_digests(col_fnv_);
  h.header_checksum = header_digest(h);
  write_at(0, &h, sizeof h);

  if (::fsync(fd_) != 0)
    fail(path_, std::string("fsync failed: ") + std::strerror(errno));
  const int close_rc = ::close(fd_);
  fd_ = -1;  // even a failed close leaves the descriptor unusable
  if (close_rc != 0)
    fail(path_, std::string("close failed: ") + std::strerror(errno));
  finished_ = true;
}

// ---------------------------------------------------------------------------
// MappedKcb
// ---------------------------------------------------------------------------

MappedKcb::MappedKcb(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(path, std::string("cannot open: ") + std::strerror(errno));
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);  // kc-lint-allow(syscalls): best-effort cleanup before
                  // the throw below reports the primary fstat failure
    fail(path, std::string("stat failed: ") + std::strerror(errno));
  }
  const auto file_len = static_cast<std::uint64_t>(st.st_size);
  if (file_len < sizeof(KcbHeader)) {
    ::close(fd);  // kc-lint-allow(syscalls): best-effort cleanup before
                  // the throw below reports the truncation
    fail(path, "truncated: shorter than the 64-byte header");
  }

  map_len_ = static_cast<std::size_t>(file_len);
  map_ = ::mmap(nullptr, map_len_, PROT_READ, MAP_PRIVATE, fd, 0);
  // kc-lint-allow(syscalls): read-only descriptor; the mapping keeps its
  // own reference, so a close failure cannot affect the read path
  ::close(fd);
  if (map_ == MAP_FAILED) {
    map_ = nullptr;
    fail(path, std::string("mmap failed: ") + std::strerror(errno));
  }

  // The destructor does not run when the constructor throws, so every
  // rejection path unmaps first.
  const auto reject = [&](const std::string& what) {
    ::munmap(map_, map_len_);
    map_ = nullptr;
    fail(path, what);
  };

  std::memcpy(&header_, map_, sizeof header_);
  if (std::memcmp(header_.magic, kKcbMagic, sizeof header_.magic) != 0)
    reject("not a .kcb file (bad magic)");
  if (header_.endian != kKcbEndianMarker)
    reject("endianness mismatch: file written on an incompatible "
           "architecture (no byte-swapping reader in version 1)");
  if (header_.version != kKcbVersion)
    reject("unsupported version " + std::to_string(header_.version) +
           " (this reader handles version 1)");
  if (header_.dtype != 0)
    reject("unsupported dtype " + std::to_string(header_.dtype) +
           " (version 1 stores float64)");
  if (header_.header_checksum != header_digest(header_))
    reject("header checksum mismatch (corrupted header)");
  if (header_.dim < 1 || header_.n < 1)
    reject("degenerate dim/n in header");
  const std::uint64_t bbox_end =
      sizeof(KcbHeader) + 2ull * header_.dim * sizeof(double);
  if (bbox_end > kKcbDataOffset)
    reject("dim too large for the version-1 bbox region");
  const std::uint64_t want =
      kKcbDataOffset + header_.n * header_.dim * sizeof(double);
  if (file_len != want)
    reject("truncated or padded: file is " + std::to_string(file_len) +
           " bytes, header promises " + std::to_string(want));

  const auto* base = static_cast<const char*>(map_);
  box_lo_.resize(header_.dim);
  box_hi_.resize(header_.dim);
  std::memcpy(box_lo_.data(), base + sizeof(KcbHeader),
              header_.dim * sizeof(double));
  std::memcpy(box_hi_.data(),
              base + sizeof(KcbHeader) + header_.dim * sizeof(double),
              header_.dim * sizeof(double));
  for (std::uint32_t j = 0; j < header_.dim; ++j) {
    // Negated so a NaN bound is rejected too.
    if (!(box_lo_[j] >= -Point::kMaxAbsCoordinate &&
          box_hi_[j] <= Point::kMaxAbsCoordinate)) {
      std::ostringstream os;
      os << "column " << (j + 1) << ": bounding box [" << box_lo_[j] << ", "
         << box_hi_[j] << "] exceeds the coordinate bound "
         << Point::kMaxAbsCoordinate;
      reject(os.str());
    }
  }
  data_ = reinterpret_cast<const double*>(base + kKcbDataOffset);

#if defined(POSIX_MADV_SEQUENTIAL)
  // The chunked readers walk each column front to back; tell the kernel.
  advise(const_cast<char*>(base + kKcbDataOffset),
         map_len_ - kKcbDataOffset, POSIX_MADV_SEQUENTIAL);
#endif
}

MappedKcb::~MappedKcb() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
}

MappedKcb::MappedKcb(MappedKcb&& other) noexcept
    : header_(other.header_),
      box_lo_(std::move(other.box_lo_)),
      box_hi_(std::move(other.box_hi_)),
      map_(other.map_),
      map_len_(other.map_len_),
      data_(other.data_) {
  other.map_ = nullptr;
  other.map_len_ = 0;
  other.data_ = nullptr;
}

bool MappedKcb::verify_data() const {
  std::vector<std::uint64_t> digests(header_.dim);
  for (std::uint32_t j = 0; j < header_.dim; ++j)
    digests[j] = fnv1a(data_ + static_cast<std::uint64_t>(j) * header_.n,
                       header_.n * sizeof(double));
  return combine_digests(digests) == header_.data_checksum;
}

void MappedKcb::prefetch(std::uint64_t offset, std::uint64_t count) const {
#if defined(POSIX_MADV_WILLNEED)
  if (offset >= header_.n || count == 0) return;
  count = std::min(count, header_.n - offset);
  const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  const auto* base = static_cast<const char*>(map_);
  for (std::uint32_t j = 0; j < header_.dim; ++j) {
    const std::uint64_t begin =
        kKcbDataOffset +
        (static_cast<std::uint64_t>(j) * header_.n + offset) * sizeof(double);
    const std::uint64_t end = begin + count * sizeof(double);
    const std::uint64_t aligned = begin / page * page;
    advise(const_cast<char*>(base + aligned), end - aligned,
           POSIX_MADV_WILLNEED);
  }
#else
  (void)offset;
  (void)count;
#endif
}

void MappedKcb::release(std::uint64_t offset, std::uint64_t count) const {
  if (offset >= header_.n || count == 0) return;
  count = std::min(count, header_.n - offset);
  const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  auto* base = static_cast<char*>(map_);
  for (std::uint32_t j = 0; j < header_.dim; ++j) {
    const std::uint64_t begin =
        kKcbDataOffset +
        (static_cast<std::uint64_t>(j) * header_.n + offset) * sizeof(double);
    const std::uint64_t end = begin + count * sizeof(double);
    // Shrink inward: partially covered boundary pages may back a live
    // neighbouring chunk, so only fully covered pages are dropped.
    const std::uint64_t aligned_begin = (begin + page - 1) / page * page;
    const std::uint64_t aligned_end = end / page * page;
    if (aligned_end <= aligned_begin) continue;
#if defined(MADV_DONTNEED)
    // kc-lint-allow(syscalls): MADV_DONTNEED is advisory page release; a
    // refusal costs memory, never correctness (pages refault from the file)
    ::madvise(base + aligned_begin, aligned_end - aligned_begin,
              MADV_DONTNEED);
#elif defined(POSIX_MADV_DONTNEED)
    advise(base + aligned_begin, aligned_end - aligned_begin,
           POSIX_MADV_DONTNEED);
#endif
  }
}

void write_kcb(const std::string& path, const kernels::PointBuffer& buf) {
  KC_EXPECTS(!buf.empty());
  KcbWriter w(path, buf.dim(), buf.size());
  std::vector<double> row(static_cast<std::size_t>(buf.dim()));
  for (std::size_t i = 0; i < buf.size(); ++i) {
    for (int j = 0; j < buf.dim(); ++j) row[static_cast<std::size_t>(j)] = buf.col(j)[i];
    w.append(row.data());
  }
  w.finish();
}

}  // namespace kc::dataset
