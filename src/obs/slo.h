// Deadline-SLO accounting, written once for every layer that asks whether
// a query met its deadline: the online kernel's rollup and flow-gap stats
// (sim/online.cpp), simulate()'s met_deadline, the watchdog's breach feed
// and the journal postmortem.  One slack tolerance, one percentile and one
// rollup, so a live run and the postmortem of its journal agree bit for
// bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/recorder.h"

namespace edgerep::obs {

/// Slack is `deadline − (completion − arrival)` in seconds.  A query (or
/// demand) meets its deadline when its slack is at least this tolerance,
/// which absorbs the rounding of the completion sum.
inline constexpr double kSlackTolerance = -1e-9;

[[nodiscard]] constexpr bool meets_deadline(double slack) noexcept {
  return slack >= kSlackTolerance;
}

/// The same rule seen from the clock: a completion at `t` is late against
/// a predicted completion `due` when it lands more than the tolerance
/// after it.
[[nodiscard]] constexpr bool past_due(double t, double due) noexcept {
  return t > due - kSlackTolerance;
}

/// Linear-interpolated percentile of a *sorted* sample, p clamped into
/// [0, 100].  An empty sample yields 0.0.
[[nodiscard]] double percentile_sorted(std::span<const double> sorted,
                                       double p) noexcept;

/// Deadline-SLO aggregates for the demands one site ended up serving.
struct SiteSlo {
  std::uint32_t site = kNoSite;
  std::size_t demands = 0;        ///< admitted demands finally served here
  std::size_t deadline_hits = 0;  ///< of those, the ones meeting the deadline
  double p50_slack = 0.0;
  double p95_slack = 0.0;
  double p99_slack = 0.0;
};

/// Deadline-SLO rollup over the queries that survived the horizon.
/// Fault-free table runs hit every deadline by construction (admission only
/// commits deadline-feasible sites), so hit_ratio < 1 is a fault or
/// contention signature.
struct SloRollup {
  std::size_t admitted_queries = 0;
  std::size_t deadline_hits = 0;
  double hit_ratio = 0.0;  ///< deadline_hits / admitted_queries (0 if none)
  /// Tail percentiles of per-query slack, seconds: pXX_slack is the slack
  /// the worst (100 − XX)% of queries fall below — 95% of queries finished
  /// with at least p95_slack to spare.
  double p50_slack = 0.0;
  double p95_slack = 0.0;
  double p99_slack = 0.0;
  std::vector<SiteSlo> per_site;  ///< sites that served demands, ascending
};

/// The rollup of one slack per admitted query; reorders `query_slacks`.
/// per_site starts empty.
[[nodiscard]] SloRollup rollup_slo(std::vector<double>& query_slacks);

/// Appends the row of `site` from the slacks of the demands it served;
/// reorders `demand_slacks`.  Callers append rows in ascending site order.
void add_site_slo(SloRollup& slo, std::uint32_t site,
                  std::vector<double>& demand_slacks);

}  // namespace edgerep::obs
