#include "bench_support.hpp"

#include <cmath>
#include <cstdio>

#include "core/cost.hpp"
#include "util/rng.hpp"
#include "workload/streams.hpp"

namespace kc::bench {

void banner(const std::string& experiment_id, const std::string& description,
            std::uint64_t seed) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s — %s\n", experiment_id.c_str(), description.c_str());
  std::printf("seed=%llu (all randomness derives from this)\n",
              static_cast<unsigned long long>(seed));
  std::printf("==============================================================="
              "=================\n");
}

void shape_note(const std::string& text) {
  std::printf("  shape: %s\n", text.c_str());
}

PlantedInstance standard_instance(std::size_t n, int k, std::int64_t z,
                                  std::uint64_t seed, int dim) {
  PlantedConfig cfg;
  cfg.n = n;
  cfg.k = k;
  cfg.z = z;
  cfg.dim = dim;
  cfg.seed = seed;
  return make_planted(cfg);
}

Table1Setup table1_setup(int argc, char** argv,
                         const std::string& experiment_id,
                         const std::string& description, int default_k,
                         double default_eps) {
  const Flags flags(argc, argv);
  flags.require_known({"quick", "seed", "k", "eps", "csv", "json", "json-tag"});
  Table1Setup setup;
  setup.quick = flags.has("quick");
  setup.seed = flags.get<std::uint64_t>("seed", 1);
  setup.k = flags.get<int>("k", default_k);
  setup.eps = flags.get<double>("eps", default_eps);
  setup.csv_path = flags.has("csv") ? flags.get_string("csv", "t1.csv") : "";
  setup.json = JsonLog::from_flags(flags);
  banner(experiment_id, description, setup.seed);
  return setup;
}

engine::Workload table1_workload(std::size_t n, int k, std::int64_t z,
                                 std::uint64_t inst_seed, int dim,
                                 std::uint64_t order_seed) {
  engine::Workload w;
  w.planted = standard_instance(n, k, z, inst_seed, dim);
  w.order = shuffled_order(n, order_seed);
  return w;
}

WeightedSet cloud_and_clusters(std::size_t n_cluster, std::size_t n_cloud,
                               int k, std::uint64_t seed) {
  PlantedConfig cfg;
  cfg.n = n_cluster;
  cfg.k = k;
  cfg.z = 0;
  cfg.dim = 2;
  cfg.seed = seed;
  const auto planted = make_planted(cfg);
  WeightedSet pts = planted.points;
  Rng rng(seed ^ 0xabcdefULL);
  // The cloud spans the cluster lattice's extent plus margin.
  const double hi = 40.0 * std::ceil(std::sqrt(static_cast<double>(k))) + 5.0;
  for (std::size_t i = 0; i < n_cloud; ++i) {
    Point p{rng.uniform_real(-5.0, hi), rng.uniform_real(-5.0, hi)};
    pts.push_back({p, 1});
  }
  return pts;
}

double quality_ratio(const WeightedSet& full, const WeightedSet& coreset,
                     int k, std::int64_t z, const Metric& metric) {
  const Solution via = solve_kcenter_outliers(coreset, k, z, metric);
  const double on_full = radius_with_outliers(full, via.centers, z, metric);
  const Solution direct = solve_kcenter_outliers(full, k, z, metric);
  return direct.radius > 0 ? on_full / direct.radius : 1.0;
}

}  // namespace kc::bench
