// Tests of the dataset layer (dataset/): the .kcb container's write ->
// mmap -> read bit-identity and zero-copy contract, the ChunkedReader's
// chunking-invariance, the strict text importers, and the engine's
// out-of-core paths (disk-backed runs must reproduce the in-memory reports
// column for column).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/cost.hpp"
#include "dataset/kcb.hpp"
#include "dataset/source.hpp"
#include "dataset/text_import.hpp"
#include "engine/registry.hpp"
#include "workload/generators.hpp"

namespace kc::dataset {
namespace {

// Per process: suites of two build trees running at once must not
// remove or overwrite each other's files.
std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "kc_dataset_" + std::to_string(::getpid()) +
         "_" + name;
}

/// A small deterministic buffer with spread-out values in every column.
kernels::PointBuffer small_buffer(std::size_t n, int dim) {
  kernels::PointBuffer buf(dim);
  buf.reserve(n);
  std::vector<double> row(static_cast<std::size_t>(dim));
  for (std::size_t i = 0; i < n; ++i) {
    for (int j = 0; j < dim; ++j)
      row[static_cast<std::size_t>(j)] =
          static_cast<double>(i) * 1.25 - static_cast<double>(j) * 0.5 +
          (i % 7) * 1e-3;
    buf.append(row.data());
  }
  return buf;
}

/// Rewrites the header of a written .kcb file through `mutate`, fixing the
/// header checksum afterwards unless `break_checksum`.
void rewrite_header(const std::string& path,
                    const std::function<void(KcbHeader&)>& mutate,
                    bool fix_checksum) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  KcbHeader h{};
  f.read(reinterpret_cast<char*>(&h), sizeof h);
  mutate(h);
  if (fix_checksum) {
    h.header_checksum = 0;
    h.header_checksum = fnv1a(&h, sizeof h);
  }
  f.seekp(0);
  f.write(reinterpret_cast<const char*>(&h), sizeof h);
}

TEST(KcbFormatTest, WriteMmapReadBitIdentity) {
  const std::string path = tmp_path("roundtrip.kcb");
  const kernels::PointBuffer buf = small_buffer(257, 3);
  write_kcb(path, buf);

  MappedKcb map(path);
  EXPECT_EQ(map.dim(), 3);
  EXPECT_EQ(map.size(), 257u);
  const auto view = map.view();
  for (int j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < buf.size(); ++i)
      // Bitwise, not approximate: the file is a memory image.
      EXPECT_EQ(std::memcmp(&view.col(j)[i], &buf.col(j)[i], sizeof(double)),
                0)
          << "row " << i << " col " << j;
  EXPECT_TRUE(map.verify_data());
  std::remove(path.c_str());
}

TEST(KcbFormatTest, BoundingBoxMatchesColumnExtremes) {
  const std::string path = tmp_path("bbox.kcb");
  const kernels::PointBuffer buf = small_buffer(100, 2);
  write_kcb(path, buf);
  MappedKcb map(path);
  for (int j = 0; j < 2; ++j) {
    double lo = buf.col(j)[0], hi = buf.col(j)[0];
    for (std::size_t i = 1; i < buf.size(); ++i) {
      lo = std::min(lo, buf.col(j)[i]);
      hi = std::max(hi, buf.col(j)[i]);
    }
    EXPECT_EQ(map.box_lo()[static_cast<std::size_t>(j)], lo);
    EXPECT_EQ(map.box_hi()[static_cast<std::size_t>(j)], hi);
  }
  std::remove(path.c_str());
}

TEST(KcbFormatTest, ChunksAliasTheMappingPointerIdentity) {
  const std::string path = tmp_path("zerocopy.kcb");
  write_kcb(path, small_buffer(500, 2));
  KcbSource src(path);
  const double* base = src.mapped().data();
  // Column j of rows [offset, ...) must point into the mapping at
  // j * n + offset — no copy anywhere on the read path.
  const auto chunk = src.chunk(123, 77);
  EXPECT_EQ(chunk.col(0), base + 123);
  EXPECT_EQ(chunk.col(1), base + 500 + 123);
  std::remove(path.c_str());
}

TEST(KcbFormatTest, RejectsTruncatedFile) {
  const std::string path = tmp_path("truncated.kcb");
  write_kcb(path, small_buffer(64, 2));
  // Chop off the last 100 bytes of data.
  {
    std::fstream f(path, std::ios::in | std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(f)),
                            std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() - 100);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(MappedKcb{path}, std::runtime_error);
  std::remove(path.c_str());
}

TEST(KcbFormatTest, RejectsCorruptedHeader) {
  const std::string path = tmp_path("corrupt_header.kcb");
  write_kcb(path, small_buffer(64, 2));
  rewrite_header(
      path, [](KcbHeader& h) { h.n += 1; }, /*fix_checksum=*/false);
  try {
    MappedKcb map(path);
    FAIL() << "corrupted header accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(KcbFormatTest, RejectsWrongEndianness) {
  const std::string path = tmp_path("endian.kcb");
  write_kcb(path, small_buffer(64, 2));
  // A byte-swapped endian marker with a *valid* checksum: specifically the
  // endianness check must fire, not the checksum one.
  rewrite_header(
      path, [](KcbHeader& h) { h.endian = 0x04030201u; },
      /*fix_checksum=*/true);
  try {
    MappedKcb map(path);
    FAIL() << "wrong-endian file accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("endian"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(KcbFormatTest, RejectsBadMagicAndWrongVersion) {
  const std::string path = tmp_path("magic.kcb");
  write_kcb(path, small_buffer(8, 2));
  rewrite_header(
      path, [](KcbHeader& h) { h.magic[0] = 'X'; }, /*fix_checksum=*/true);
  EXPECT_THROW(MappedKcb{path}, std::runtime_error);
  write_kcb(path, small_buffer(8, 2));
  rewrite_header(
      path, [](KcbHeader& h) { h.version = 99; }, /*fix_checksum=*/true);
  EXPECT_THROW(MappedKcb{path}, std::runtime_error);
  std::remove(path.c_str());
}

TEST(KcbFormatTest, DetectsFlippedDataByte) {
  const std::string path = tmp_path("bitrot.kcb");
  write_kcb(path, small_buffer(64, 2));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(kKcbDataOffset) + 321);
    char b = 0;
    f.seekg(static_cast<std::streamoff>(kKcbDataOffset) + 321);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(static_cast<std::streamoff>(kKcbDataOffset) + 321);
    f.write(&b, 1);
  }
  MappedKcb map(path);  // opening is O(1) and does not touch the data
  EXPECT_FALSE(map.verify_data());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Sources and the chunked reader

TEST(GeneratedSourceTest, ContentIsChunkingInvariant) {
  GeneratedConfig cfg;
  cfg.n = 4001;
  cfg.dim = 3;
  cfg.seed = 11;
  GeneratedSource a(cfg), b(cfg);
  ReaderOptions small_chunks;
  small_chunks.chunk_points = 37;  // adversarially odd
  ReaderOptions one_chunk;
  one_chunk.chunk_points = 100000;
  ChunkedReader ra(a, small_chunks), rb(b, one_chunk);

  std::vector<double> flat_a, flat_b;
  ChunkedReader::Chunk ch;
  while (ra.next(ch))
    for (std::size_t i = 0; i < ch.view.size(); ++i)
      for (int j = 0; j < ch.view.dim(); ++j)
        flat_a.push_back(ch.view.col(j)[i]);
  while (rb.next(ch))
    for (std::size_t i = 0; i < ch.view.size(); ++i)
      for (int j = 0; j < ch.view.dim(); ++j)
        flat_b.push_back(ch.view.col(j)[i]);
  ASSERT_EQ(flat_a.size(), flat_b.size());
  for (std::size_t i = 0; i < flat_a.size(); ++i)
    ASSERT_EQ(flat_a[i], flat_b[i]) << "index " << i;
}

TEST(GeneratedSourceTest, BboxIsExactMinMax) {
  GeneratedConfig cfg;
  cfg.n = 2000;
  cfg.dim = 2;
  cfg.seed = 5;
  GeneratedSource src(cfg);
  std::vector<double> lo(2, 1e300), hi(2, -1e300);
  const auto view = src.chunk(0, cfg.n);
  for (std::uint64_t i = 0; i < cfg.n; ++i) {
    for (int j = 0; j < 2; ++j) {
      lo[static_cast<std::size_t>(j)] =
          std::min(lo[static_cast<std::size_t>(j)], view.col(j)[i]);
      hi[static_cast<std::size_t>(j)] =
          std::max(hi[static_cast<std::size_t>(j)], view.col(j)[i]);
    }
  }
  EXPECT_EQ(src.box_lo(), lo);
  EXPECT_EQ(src.box_hi(), hi);
}

TEST(ChunkedReaderTest, SweepsChunkBoundariesWithoutLossOrDuplication) {
  const std::string path = tmp_path("sweep.kcb");
  const std::size_t n = 1000;
  write_kcb(path, small_buffer(n, 2));
  KcbSource src(path);
  const auto full = src.mapped().view();
  // Boundary-adversarial chunk sizes: 1, primes, n-1, n, > n.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{999},
                                  std::size_t{1000}, std::size_t{5000}}) {
    ReaderOptions opts;
    opts.chunk_points = chunk;
    ChunkedReader reader(src, opts);
    std::size_t rows = 0;
    ChunkedReader::Chunk ch;
    while (reader.next(ch)) {
      ASSERT_EQ(ch.offset, rows);
      for (std::size_t i = 0; i < ch.view.size(); ++i)
        for (int j = 0; j < 2; ++j)
          ASSERT_EQ(ch.view.col(j)[i], full.col(j)[rows + i])
              << "chunk=" << chunk;
      rows += ch.view.size();
    }
    EXPECT_EQ(rows, n) << "chunk=" << chunk;
  }
  std::remove(path.c_str());
}

TEST(ChunkedReaderTest, ReleasedPagesRefaultWithIdenticalBytes) {
  const std::string path = tmp_path("release.kcb");
  const std::size_t n = 9000;
  write_kcb(path, small_buffer(n, 2));
  KcbSource src(path);
  ReaderOptions opts;
  opts.chunk_points = 512;  // many chunks -> many release() calls
  ChunkedReader reader(src, opts);
  ChunkedReader::Chunk ch;
  while (reader.next(ch)) {
  }
  // After the pass dropped its pages, a fresh read must still see the
  // exact file image (DONTNEED on a read-only mapping is non-destructive).
  const kernels::PointBuffer buf = small_buffer(n, 2);
  const auto view = src.mapped().view();
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(view.col(1)[i], buf.col(1)[i]) << i;
  std::remove(path.c_str());
}

TEST(ChunkedRadiusTest, MatchesInMemoryEvaluationAtEveryChunkSize) {
  GeneratedConfig gcfg;
  gcfg.n = 3000;
  gcfg.dim = 2;
  gcfg.seed = 3;
  GeneratedSource src(gcfg);

  // Materialize once for the in-memory reference.
  WeightedSet pts;
  const auto view = src.chunk(0, gcfg.n);
  for (std::uint64_t i = 0; i < gcfg.n; ++i)
    pts.push_back({Point{view.col(0)[i], view.col(1)[i]}, 1});
  PointSet centers{Point({0.0, 0.0}), Point({40.0, 0.0}), Point({0.0, 40.0})};
  for (const Norm norm : {Norm::L2, Norm::Linf, Norm::L1}) {
    const Metric metric{norm};
    const double want = radius_with_outliers(pts, centers, 25, metric);
    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{999}, std::size_t{100000}}) {
      ReaderOptions opts;
      opts.chunk_points = chunk;
      const double got =
          chunked_radius_with_outliers(src, centers, 25, metric, opts);
      // Bit-identity, not tolerance: same per-point kernel accumulation.
      EXPECT_EQ(got, want) << metric.name() << " chunk=" << chunk;
    }
  }
}

TEST(SourceWriteTest, GeneratedToKcbRoundTripsExactly) {
  const std::string path = tmp_path("gen.kcb");
  GeneratedConfig cfg;
  cfg.n = 1234;
  cfg.dim = 2;
  cfg.seed = 9;
  GeneratedSource gen(cfg);
  EXPECT_EQ(write_kcb(path, gen), cfg.n);

  KcbSource disk(path);
  EXPECT_EQ(disk.box_lo(), gen.box_lo());
  EXPECT_EQ(disk.box_hi(), gen.box_hi());
  const auto view = disk.mapped().view();
  const auto want = gen.chunk(0, cfg.n);
  for (std::uint64_t i = 0; i < cfg.n; ++i)
    for (int j = 0; j < 2; ++j)
      ASSERT_EQ(view.col(j)[i], want.col(j)[i]) << "row " << i;
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Text importers

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

TEST(CsvImportTest, ParsesPointsTolerantOfHeaderCommentsAndBlanks) {
  const std::string path = tmp_path("points.csv");
  write_file(path,
             "# a comment\n"
             "x,y\n"
             "\n"
             "1.5,2.5\n"
             "-3.0,4.0\n");
  const WeightedSet pts = read_csv_points(path);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].p[0], 1.5);
  EXPECT_EQ(pts[1].p[1], 4.0);
  EXPECT_EQ(pts[0].w, 1);
  std::remove(path.c_str());
}

TEST(CsvImportTest, RejectsTrailingGarbageInsideACell) {
  const std::string path = tmp_path("garbage.csv");
  write_file(path, "1.0,2.0\n1.5abc,2.0\n");
  try {
    (void)read_csv_points(path);
    FAIL() << "trailing garbage accepted";
  } catch (const std::runtime_error& e) {
    // The diagnostic names the line and column.
    EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("column 1"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(CsvImportTest, RejectsNonFiniteAndInconsistentRows) {
  const std::string path = tmp_path("nan.csv");
  write_file(path, "1.0,nan\n");
  EXPECT_THROW(read_csv_points(path), std::runtime_error);
  write_file(path, "1.0,inf\n");
  EXPECT_THROW(read_csv_points(path), std::runtime_error);
  write_file(path, "1.0,2.0\n3.0,4.0,5.0\n");
  EXPECT_THROW(read_csv_points(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(CsvImportTest, WeightedModeParsesAndValidatesWeights) {
  const std::string path = tmp_path("weighted.csv");
  write_file(path, "1.0,2.0,3\n4.0,5.0,1\n");
  const WeightedSet pts = read_csv_points(path, /*weighted=*/true);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].w, 3);
  EXPECT_EQ(pts[0].p.dim(), 2);
  write_file(path, "1.0,2.0,0\n");
  EXPECT_THROW(read_csv_points(path, true), std::runtime_error);
  write_file(path, "1.0,2.0,1.5\n");
  EXPECT_THROW(read_csv_points(path, true), std::runtime_error);
  std::remove(path.c_str());
}

TEST(CsvImportTest, CsvToKcbRoundTrip) {
  const std::string csv = tmp_path("rt.csv");
  const std::string kcb = tmp_path("rt.kcb");
  write_file(csv,
             "x,y\n"
             "0.125,7.5\n"
             "1e-3,-2.25\n"
             "1000.5,3.75\n");
  EXPECT_EQ(csv_to_kcb(csv, kcb), 3u);
  MappedKcb map(kcb);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.dim(), 2);
  const auto view = map.view();
  EXPECT_EQ(view.col(0)[0], 0.125);
  EXPECT_EQ(view.col(0)[1], 1e-3);
  EXPECT_EQ(view.col(1)[2], 3.75);
  EXPECT_TRUE(map.verify_data());
  std::remove(csv.c_str());
  std::remove(kcb.c_str());
}

TEST(MtxImportTest, DenseArrayRoundTripAndRejections) {
  const std::string mtx = tmp_path("m.mtx");
  const std::string kcb = tmp_path("m.kcb");
  // Matrix-Market dense arrays list values column-major: column 0's three
  // rows, then column 1's.
  write_file(mtx,
             "%%MatrixMarket matrix array real general\n"
             "% comment\n"
             "3 2\n"
             "1.0\n2.0\n3.0\n"
             "4.0\n5.0\n6.0\n");
  EXPECT_EQ(mtx_to_kcb(mtx, kcb), 3u);
  MappedKcb map(kcb);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.dim(), 2);
  const auto view = map.view();
  EXPECT_EQ(view.col(0)[1], 2.0);
  EXPECT_EQ(view.col(1)[0], 4.0);
  EXPECT_TRUE(map.verify_data());

  // Coordinate (sparse) banners, short files, and trailing values are
  // errors, not silent near-misses.
  write_file(mtx, "%%MatrixMarket matrix coordinate real general\n3 2 6\n");
  EXPECT_THROW(mtx_to_kcb(mtx, kcb), std::runtime_error);
  write_file(mtx,
             "%%MatrixMarket matrix array real general\n3 2\n1\n2\n3\n4\n5\n");
  EXPECT_THROW(mtx_to_kcb(mtx, kcb), std::runtime_error);
  write_file(
      mtx,
      "%%MatrixMarket matrix array real general\n1 2\n1\n2\n3\n");
  EXPECT_THROW(mtx_to_kcb(mtx, kcb), std::runtime_error);
  std::remove(mtx.c_str());
  std::remove(kcb.c_str());
}

TEST(CoordinateBoundTest, ImportersAndKcbOpenRejectValuesPastTheBound) {
  // ±Point::kMaxAbsCoordinate itself is accepted everywhere; one step past
  // it is an error at the CSV and MTX importers and at .kcb open.
  const std::string csv = tmp_path("bound.csv");
  const std::string mtx = tmp_path("bound.mtx");
  const std::string kcb = tmp_path("bound.kcb");
  write_file(csv, "1e150,-1e150\n0,0\n");
  EXPECT_EQ(read_csv_points(csv).size(), 2u);
  write_file(csv, "0,0\n-1.0000001e150,0\n");
  EXPECT_THROW(read_csv_points(csv), std::runtime_error);
  write_file(csv, "2e200,0\n");
  EXPECT_THROW(csv_to_kcb(csv, kcb), std::runtime_error);

  write_file(mtx,
             "%%MatrixMarket matrix array real general\n2 1\n1e150\n-1e150\n");
  EXPECT_EQ(mtx_to_kcb(mtx, kcb), 2u);
  write_file(mtx,
             "%%MatrixMarket matrix array real general\n2 1\n1\n-1e200\n");
  EXPECT_THROW(mtx_to_kcb(mtx, kcb), std::runtime_error);

  kernels::PointBuffer buf(2);
  const double in_bound[2] = {1e150, -1e150};
  buf.append(in_bound);
  write_kcb(kcb, buf);
  EXPECT_EQ(MappedKcb(kcb).size(), 1u);
  const double past[2] = {0.0, 1e200};
  buf.append(past);
  write_kcb(kcb, buf);
  EXPECT_THROW(MappedKcb{kcb}, std::runtime_error);
  std::remove(csv.c_str());
  std::remove(mtx.c_str());
  std::remove(kcb.c_str());
}

// ---------------------------------------------------------------------------
// Engine out-of-core paths

TEST(EngineDatasetTest, DiskRunsReproduceInMemoryReports) {
  const std::string path = tmp_path("engine.kcb");
  GeneratedConfig gcfg;
  gcfg.n = 20000;
  gcfg.dim = 2;
  gcfg.seed = 21;
  GeneratedSource gen(gcfg);
  write_kcb(path, gen);

  engine::PipelineConfig cfg;
  cfg.k = 3;
  cfg.z = 40;
  cfg.dim = 2;
  cfg.eps = 0.5;
  cfg.seed = 2;
  cfg.delta = 1 << 9;
  cfg.with_direct_solve = false;  // mirrored by the out-of-core path

  auto src = std::make_shared<KcbSource>(path);
  const engine::Workload disk = engine::make_dataset_workload(src);
  const engine::Workload mem = engine::materialize_workload(*src);
  ASSERT_TRUE(disk.from_dataset());
  ASSERT_FALSE(mem.from_dataset());

  for (const std::string name : {"stream-insertion", "dynamic"}) {
    const auto d = engine::run(name, disk, cfg);
    const auto m = engine::run(name, mem, cfg);
    // Bit-identical reports: the disk path is the same computation fed by
    // chunks, not an approximation of it.
    EXPECT_EQ(d.report.coreset_size, m.report.coreset_size) << name;
    EXPECT_EQ(d.report.words, m.report.words) << name;
    EXPECT_EQ(d.report.radius, m.report.radius) << name;
    EXPECT_EQ(d.report.quality, m.report.quality) << name;
    EXPECT_EQ(d.solution.centers.size(), m.solution.centers.size()) << name;
  }
  std::remove(path.c_str());
}

TEST(EngineDatasetTest, NonStreamingPipelineRefusesDatasetWorkload) {
  const std::string path = tmp_path("refuse.kcb");
  GeneratedConfig gcfg;
  gcfg.n = 500;
  gcfg.dim = 2;
  GeneratedSource gen(gcfg);
  write_kcb(path, gen);
  auto src = std::make_shared<KcbSource>(path);
  const engine::Workload w = engine::make_dataset_workload(src);
  engine::PipelineConfig cfg;
  cfg.k = 3;
  cfg.z = 4;
  cfg.dim = 2;
  EXPECT_THROW((void)engine::run("offline", w, cfg), std::runtime_error);
  std::remove(path.c_str());
}

TEST(EngineDatasetTest, MaterializeGuardsAgainstOversizedSources) {
  GeneratedConfig gcfg;
  gcfg.n = 2000;
  gcfg.dim = 2;
  GeneratedSource gen(gcfg);
  EXPECT_THROW((void)engine::materialize_workload(gen, /*max_points=*/1000),
               std::runtime_error);
}

}  // namespace
}  // namespace kc::dataset
