// Shared helpers for the experiment harnesses: banner printing, the
// "cloud + clusters" separating workload, quality evaluation, and the
// common Table-1 setup (flag parsing + planted instances + engine
// workloads).  The JSON bench log lives in the library
// (src/util/jsonlog.hpp) so tools/ can use it too.

#pragma once

#include <cstdint>
#include <string>

#include "core/solver.hpp"
#include "core/types.hpp"
#include "engine/pipeline.hpp"
#include "util/flags.hpp"
#include "util/jsonlog.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/generators.hpp"

namespace kc::bench {

/// Prints the standard experiment banner (id, description, seed) so every
/// run is self-describing and reproducible.
void banner(const std::string& experiment_id, const std::string& description,
            std::uint64_t seed);

/// Prints a one-line observed-shape note (e.g. a log-log slope).
void shape_note(const std::string& text);

/// Planted instance sized for MPC/stream sweeps.
[[nodiscard]] PlantedInstance standard_instance(std::size_t n, int k,
                                                std::int64_t z,
                                                std::uint64_t seed,
                                                int dim = 2);

/// The shared preamble of the bench_table1_* harnesses: parse the common
/// flags (--quick, --seed, --k, --eps, --csv, --json, --json-tag), exit 2
/// on any other, print the banner, and hand back everything the sweeps
/// need.  Deduplicates the
/// copy-pasted setup blocks the three harnesses used to carry.
struct Table1Setup {
  bool quick = false;
  std::uint64_t seed = 1;
  int k = 0;
  double eps = 0.0;
  std::string csv_path;  ///< from --csv; empty = no raw-series dump
  JsonLog json;
};
[[nodiscard]] Table1Setup table1_setup(int argc, char** argv,
                                       const std::string& experiment_id,
                                       const std::string& description,
                                       int default_k, double default_eps);

/// Engine workload over a standard Table-1 instance: planted points from
/// `inst_seed`, arrival order from `order_seed` (the harnesses pin both so
/// refactors reproduce historical numbers exactly).
[[nodiscard]] engine::Workload table1_workload(std::size_t n, int k,
                                               std::int64_t z,
                                               std::uint64_t inst_seed,
                                               int dim,
                                               std::uint64_t order_seed);

/// The ABL-GUESS separating workload: k dense planted clusters plus a wide
/// uniform cloud whose points look like outliers locally but are globally
/// structured (PAPER.md, "Documented substitutions").
[[nodiscard]] WeightedSet cloud_and_clusters(std::size_t n_cluster,
                                             std::size_t n_cloud, int k,
                                             std::uint64_t seed);

/// Solve on `coreset`, evaluate the centers on `full`, and return the ratio
/// against a direct solve on `full` (the QUALITY metric).
[[nodiscard]] double quality_ratio(const WeightedSet& full,
                                   const WeightedSet& coreset, int k,
                                   std::int64_t z, const Metric& metric);

}  // namespace kc::bench
