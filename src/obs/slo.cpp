#include "obs/slo.h"

#include <algorithm>

namespace edgerep::obs {

namespace {

/// Where percentile p falls in a sorted sample of n ≥ 2: between ranks lo
/// and hi, frac of the way.
struct Rank {
  std::size_t lo;
  std::size_t hi;
  double frac;
};

Rank rank_of(std::size_t n, double p) {
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  return {lo, std::min(lo + 1, n - 1), rank - static_cast<double>(lo)};
}

/// percentile_sorted of the sorted `v`, from the two order statistics it
/// reads: rank lo by std::nth_element, rank hi as the least of what lies
/// above it.  Reorders `v`.
double select_percentile(std::vector<double>& v, double p) {
  if (v.size() < 2) return percentile_sorted(v, p);
  const Rank r = rank_of(v.size(), p);
  const auto lo = v.begin() + static_cast<std::ptrdiff_t>(r.lo);
  std::nth_element(v.begin(), lo, v.end());
  const double at_hi = r.hi == r.lo ? *lo : *std::min_element(lo + 1, v.end());
  return *lo + r.frac * (at_hi - *lo);
}

/// Fills the hit count and the p50/p95/p99 slack (the slack the worst
/// 50/5/1% fall below) of `row`, an SloRollup or a SiteSlo; reorders
/// `slacks`.
template <typename Row>
void fill_tail(Row& row, std::vector<double>& slacks) {
  row.deadline_hits = static_cast<std::size_t>(
      std::count_if(slacks.begin(), slacks.end(), meets_deadline));
  row.p50_slack = select_percentile(slacks, 50.0);
  row.p95_slack = select_percentile(slacks, 5.0);
  row.p99_slack = select_percentile(slacks, 1.0);
}

}  // namespace

double percentile_sorted(std::span<const double> sorted, double p) noexcept {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  const Rank r = rank_of(sorted.size(), p);
  return sorted[r.lo] + r.frac * (sorted[r.hi] - sorted[r.lo]);
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
