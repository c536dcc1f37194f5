#include "core/radius_oracle.hpp"

#include <cmath>
#include <utility>

#include "core/charikar.hpp"
#include "core/gonzalez.hpp"
#include "geometry/point_buffer.hpp"
#include "util/check.hpp"

namespace kc {

std::int64_t summary_center_budget(int k, std::int64_t z, double gamma,
                                   int dim) {
  KC_EXPECTS(gamma > 0.0 && gamma <= 1.0);
  const auto per_center =
      static_cast<std::int64_t>(std::pow(std::ceil(4.0 / gamma), dim));
  return static_cast<std::int64_t>(k) * per_center + z + 1;
}

std::vector<RadiusEstimate> estimate_radius_ladder(
    const WeightedSet& pts, int k, std::span<const std::int64_t> zs,
    const Metric& metric, const OracleOptions& opt) {
  std::vector<RadiusEstimate> out(zs.size());
  // One SoA pack of the input for the whole ladder: the traversal and
  // every Charikar fallback on `pts` read it.
  mpc::ExecContext exec = opt.exec;
  kernels::PointBuffer local;
  exec.buffer = &kernels::mirror_or_pack(pts, exec.buffer, local);
  const bool summary =
      opt.kind == OracleKind::Summary ||
      (opt.kind == OracleKind::Auto && pts.size() > kAutoThreshold);
  if (summary && pts.empty()) return out;  // {0, 1} per guess

  // Guesses whose summary is smaller than the input share one traversal;
  // the rest (and every guess of a non-Summary oracle) run Charikar on
  // the input directly.
  std::vector<std::size_t> via_summary;
  std::vector<int> budgets;
  for (std::size_t i = 0; i < zs.size(); ++i) {
    if (summary) {
      const std::int64_t tau =
          summary_center_budget(k, zs[i], kSummaryGamma, pts.front().p.dim());
      if (static_cast<std::int64_t>(pts.size()) > tau) {
        via_summary.push_back(i);
        budgets.push_back(static_cast<int>(tau));
        continue;
      }
    }
    CharikarResult res = charikar_oracle(pts, k, zs[i], metric, exec);
    out[i] = {res.radius, kCharikarRho, std::move(res.centers)};
  }
  if (budgets.empty()) return out;

  const std::vector<GonzalezPrefix> prefixes =
      gonzalez_prefixes(pts, budgets, metric, exec.pool, exec.buffer);
  // The buffer mirrors `pts`, not a summary; the Charikar oracle packs each
  // (small) summary itself, once for its whole ladder.
  mpc::ExecContext summary_exec = exec;
  summary_exec.buffer = nullptr;
  for (std::size_t s = 0; s < via_summary.size(); ++s) {
    const std::size_t i = via_summary[s];
    CharikarResult rs = charikar_oracle(prefixes[s].summary, k, zs[i], metric,
                                        summary_exec);
    // δ ≤ γ·opt by the packing bound.  opt(P) ≤ opt(S) + δ ≤ r_S + δ, and
    // r_S + δ ≤ ρ_C·opt(S) + δ ≤ ρ_C(opt+δ) + δ ≤ (ρ_C(1+γ) + γ)·opt.
    out[i] = {rs.radius + prefixes[s].delta,
              kCharikarRho * (1.0 + kSummaryGamma) + kSummaryGamma,
              std::move(rs.centers)};
  }
  return out;
}

RadiusEstimate estimate_radius(const WeightedSet& pts, int k, std::int64_t z,
                               const Metric& metric, const OracleOptions& opt) {
  return estimate_radius_ladder(pts, k, {&z, 1}, metric, opt).front();
}

}  // namespace kc
