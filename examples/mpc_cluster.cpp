// MPC example: cluster a dataset distributed (adversarially) over a fleet
// of simulated machines with the paper's deterministic 2-round algorithm,
// and report per-machine storage and communication — the quantities
// Theorem 10 bounds.  Runs through the engine layer: the same
// `mpc-2round` pipeline kcenter_cli and the T1-MPC harness drive.
//
//   ./mpc_cluster [--n 40000] [--m 64] [--k 5] [--z 100] [--eps 0.5]
//                 [--partition adversarial|random|roundrobin]

#include <cstdio>
#include <string>

#include "example_support.hpp"
#include "kcenter.hpp"

int main(int argc, char** argv) {
  using namespace kc;
  using namespace kc::mpc;
  const Flags flags(argc, argv);
  flags.require_known({"k", "z", "seed", "eps", "m", "n", "partition"});
  engine::PipelineConfig cfg;
  cfg.k = flags.get<int>("k", 5);
  cfg.z = flags.get<std::int64_t>("z", 100);
  cfg.dim = 2;
  cfg.seed = flags.get<std::uint64_t>("seed", 1);
  cfg.eps = flags.get<double>("eps", 0.5);
  cfg.machines = flags.get<int>("m", 64);
  cfg.partition_seed = 7;
  cfg.with_direct_solve = false;  // report the bracket, not a direct solve
  const auto n = flags.get<std::size_t>("n", 40000);
  const std::string part_name = flags.get_string("partition", "adversarial");
  if (!parse_partition(part_name, &cfg.partition))
    examples::reject(("unknown --partition '" + part_name +
                      "' (adversarial|random|roundrobin)")
                         .c_str());
  const engine::Workload workload =
      examples::checked_workload("mpc-2round", n, cfg);

  std::printf("MPC 2-round coreset: n=%zu on m=%d machines (%s partition), "
              "k=%d z=%lld eps=%g\n\n",
              n, cfg.machines, partition_name(cfg.partition), cfg.k,
              static_cast<long long>(cfg.z), cfg.eps);

  const engine::PipelineResult res = engine::run("mpc-2round", workload, cfg);
  const auto& r = res.report;

  Table table({"metric", "value"});
  table.add_row({"rounds", std::to_string(r.rounds)});
  table.add_row({"r-hat (agreed radius)", fmt(r.get("r_hat"), 4)});
  table.add_row({"sum of outlier guesses (<= 2z)",
                 fmt_count(static_cast<long long>(r.get("sum_guesses")))});
  table.add_row({"merged coreset at coordinator",
                 fmt_count(static_cast<long long>(r.get("merged_size")))});
  table.add_row({"final coreset size",
                 fmt_count(static_cast<long long>(r.coreset_size))});
  table.add_row({"peak worker storage (words)",
                 fmt_count(static_cast<long long>(r.words))});
  table.add_row({"coordinator storage (words)",
                 fmt_count(static_cast<long long>(r.get("coord_words")))});
  table.add_row({"total communication (words)",
                 fmt_count(static_cast<long long>(r.comm_words))});
  table.add_row({"radius via coreset (on full P)", fmt(r.radius, 4)});
  // std::string first operand sidesteps a GCC 12 -Wrestrict false positive
  // in operator+(const char*, std::string&&).
  table.add_row({"planted optimum bracket",
                 std::string("[") + fmt(workload.planted.opt_lo, 4) + ", " +
                     fmt(workload.planted.opt_hi, 4) + "]"});
  table.add_row({"wall clock (ms)", fmt(r.build_ms + r.solve_ms, 1)});
  table.print();

  std::printf("\nExtracted %zu centers; the same workload drives any "
              "registered pipeline (see kcenter_cli --list).\n",
              res.solution.centers.size());
  return 0;
}
