#include "obs/slo.h"

#include <algorithm>

namespace edgerep::obs {

namespace {

/// Sorts `slacks` and fills the hit count and the p50/p95/p99 slack (the
/// slack the worst 50/5/1% fall below) of `row`, an SloRollup or a SiteSlo.
template <typename Row>
void fill_tail(Row& row, std::vector<double>& slacks) {
  std::sort(slacks.begin(), slacks.end());
  row.deadline_hits = static_cast<std::size_t>(
      std::count_if(slacks.begin(), slacks.end(), meets_deadline));
  row.p50_slack = percentile_sorted(slacks, 50.0);
  row.p95_slack = percentile_sorted(slacks, 5.0);
  row.p99_slack = percentile_sorted(slacks, 1.0);
}

}  // namespace

double percentile_sorted(std::span<const double> sorted, double p) noexcept {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

SloRollup rollup_slo(std::vector<double>& query_slacks) {
  SloRollup slo;
  slo.admitted_queries = query_slacks.size();
  fill_tail(slo, query_slacks);
  slo.hit_ratio = query_slacks.empty()
                      ? 0.0
                      : static_cast<double>(slo.deadline_hits) /
                            static_cast<double>(query_slacks.size());
  return slo;
}

void add_site_slo(SloRollup& slo, std::uint32_t site,
                  std::vector<double>& demand_slacks) {
  SiteSlo& row = slo.per_site.emplace_back();
  row.site = site;
  row.demands = demand_slacks.size();
  fill_tail(row, demand_slacks);
}

}  // namespace edgerep::obs
