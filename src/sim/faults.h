// Deterministic, seeded fault model for the edge cloud (failure injection).
//
// Edge deployments churn: cloudlets crash and come back, WMAN links flap,
// and co-located workloads steal computing capacity.  A `FaultTrace` is a
// time-ordered list of such events; a `FaultState` folds a prefix of the
// trace into the *effective* network view — which sites are up, how much
// computing resource each one really has, and what the minimum path delays
// are with the downed links removed.
//
// Modeling choices (kept deliberately one-sided so the fault-free
// precomputes stay valid prunes):
//
//  * A site crash takes down its *compute* only; its graph node still
//    forwards traffic (the co-located switch survives).  Replicas stored at
//    a crashed site are lost — recovery restores capacity, not data.
//  * A link failure removes the edge from routing.  Removing edges can only
//    lengthen shortest paths, so the effective delay is always ≥ the
//    fault-free delay and the deadline-feasible candidate sets of the
//    fault-free `CandidateIndex` remain supersets of the true ones.
//  * Capacity degradation scales a site's available resource by a factor in
//    [0, 1]; it never adds capacity.  `kCapacityRestore` returns the site to
//    its fault-free availability.
//
// Everything is a pure function of (instance, applied events): no clocks,
// no global state, bit-reproducible across runs and thread counts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cloud/delay.h"
#include "cloud/instance.h"
#include "net/shortest_path.h"

namespace edgerep {

enum class FaultKind : std::uint8_t {
  kSiteDown,         ///< site's compute crashes; replicas there are lost
  kSiteUp,           ///< site recovers (capacity back, data still gone)
  kLinkDown,         ///< graph edge removed from routing
  kLinkUp,           ///< graph edge restored
  kCapacityLoss,     ///< available resource scaled down by `fraction`
  kCapacityRestore,  ///< available resource back to the fault-free value
};
inline constexpr std::size_t kFaultKindCount = 6;

[[nodiscard]] const char* to_string(FaultKind k) noexcept;

struct FaultEvent {
  double time = 0.0;  ///< seconds on the simulation clock
  FaultKind kind = FaultKind::kSiteDown;
  SiteId site = kInvalidSite;  ///< site events + capacity events
  EdgeId edge = kInvalidEdge;  ///< link events
  /// kCapacityLoss: fraction of the fault-free availability *lost* (0..1].
  double fraction = 0.0;
};

/// A time-ordered fault schedule.  Traces are value types: generate one
/// (workload/fault_gen.h), archive it, and replay it bit-exactly.
struct FaultTrace {
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events.size(); }
};

/// Structural check against an instance: ids in range, times non-decreasing
/// and finite, fractions in (0, 1].  Throws std::invalid_argument.
void validate_fault_trace(const Instance& inst, const FaultTrace& trace);

/// The effective network after a set of applied fault events.
///
/// Queries (`available`, `deadline_ok`, `path_delay`) answer from the
/// fault-free instance until the first event is applied, so a default
/// FaultState is free.  Link faults invalidate the per-site delay rows,
/// which are recomputed lazily on the next delay query: a DelayTable over
/// the surviving edges, filled as Instance::finalize fills its table (rows
/// may fill on the global pool; no result depends on that).
class FaultState {
 public:
  explicit FaultState(const Instance& inst);

  /// Fold one event into the state.  Events must reference valid ids
  /// (std::invalid_argument otherwise); applying is idempotent per kind.
  void apply(const FaultEvent& e);

  /// Fold every event in the trace with time ≤ `until` (in order).
  void apply_until(const FaultTrace& trace, double until);

  [[nodiscard]] const Instance& instance() const noexcept { return *inst_; }

  /// --- effective site view ---------------------------------------------
  [[nodiscard]] bool site_up(SiteId s) const { return up_.at(s); }
  /// 0 when down, (1 - lost fraction) when degraded, 1 otherwise.
  [[nodiscard]] double capacity_scale(SiteId s) const;
  /// Fraction of the fault-free availability lost to capacity faults,
  /// whether the site is up or down (0 = no degradation).
  [[nodiscard]] double lost_fraction(SiteId s) const {
    return lost_frac_.at(s);
  }
  /// Effective A(v_l): fault-free availability × capacity_scale.
  [[nodiscard]] double available(SiteId s) const {
    return inst_->site(s).available * capacity_scale(s);
  }

  /// --- effective network view ------------------------------------------
  [[nodiscard]] bool edge_up(EdgeId e) const { return edge_up_.at(e); }
  /// One flag per graph edge, nonzero while the edge is up.
  [[nodiscard]] std::span<const char> edge_mask() const noexcept {
    return edge_up_;
  }
  [[nodiscard]] bool any_link_down() const noexcept { return links_down_ > 0; }
  /// Minimum per-unit delay between two sites' nodes with downed links
  /// removed; equals the fault-free delay when no link is down.
  [[nodiscard]] double path_delay(SiteId from, SiteId to) const;
  /// evaluation_delay / deadline_ok with the effective path delays.
  [[nodiscard]] double evaluation_delay(const Query& q, const DatasetDemand& dd,
                                        SiteId site) const;
  [[nodiscard]] bool deadline_ok(const Query& q, const DatasetDemand& dd,
                                 SiteId site) const {
    return evaluation_delay(q, dd, site) <= q.deadline;
  }

  /// Is this (query, demand, site) evaluation feasible at all right now:
  /// site up and deadline met under effective delays?
  [[nodiscard]] bool feasible(const Query& q, const DatasetDemand& dd,
                              SiteId site) const {
    return site_up(site) && deadline_ok(q, dd, site);
  }

  /// --- bookkeeping ------------------------------------------------------
  [[nodiscard]] std::size_t events_applied() const noexcept { return epoch_; }
  [[nodiscard]] std::size_t sites_down() const noexcept { return sites_down_; }
  [[nodiscard]] std::size_t links_down() const noexcept { return links_down_; }
  /// Any site down, degraded, or any link down?
  [[nodiscard]] bool degraded() const noexcept {
    return sites_down_ > 0 || links_down_ > 0 || capacity_faults_ > 0;
  }

 private:
  void rebuild_overlay() const;

  const Instance* inst_;
  std::vector<char> up_;             ///< per site
  std::vector<double> lost_frac_;    ///< per site, 0 = no degradation
  std::vector<char> edge_up_;        ///< per graph edge
  std::size_t sites_down_ = 0;
  std::size_t links_down_ = 0;
  std::size_t capacity_faults_ = 0;  ///< sites with lost_frac_ > 0
  std::size_t epoch_ = 0;

  /// Lazily recomputed per-site delay rows under the current downed-edge
  /// set (empty & clean while no link fault has ever been applied).
  mutable DelayTable overlay_;
  mutable bool overlay_dirty_ = false;
};

}  // namespace edgerep
