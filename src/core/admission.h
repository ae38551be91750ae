// The admission step and transaction of Algorithms 1–2, written once.
//
// `admit_demand` is the Appro-S admission step (Algorithm 1) that
// Algorithm 2 runs once per demand.  Batch Appro, repair's re-admission and
// the stream shards all call it; they differ only in the candidate row and
// the per-site state (availability, loads, replica mask) they feed it, and
// each applies the returned choice to its own plan or shard state.
//
// Every engine that admits whole queries does it the same way: take the
// queries in a fixed order (`order_queries`), run a per-demand step that
// prices the feasible sites and commits the winner, and — in atomic mode —
// roll the whole query back when one of its demands fails (DESIGN.md §1
// item 3), so capacity and replica budget are never stranded on a query
// that cannot be admitted.  `admit_query` runs it.  Appro-S/G, repair's
// re-admission, Greedy and local search call it with their own per-demand
// step.
#pragma once

#include <cstddef>
#include <vector>

#include "cloud/plan.h"
#include "core/appro.h"
#include "core/pricing.h"
#include "core/primal_dual.h"
#include "obs/audit.h"

namespace edgerep {

/// Rank `queries` by `opts.order` (kRandom shuffles with `opts.seed`).  The
/// list is sorted by id first, so the result depends only on the set, not
/// on the order its members were collected in.
void order_queries(const Instance& inst, const ApproOptions& opts,
                   std::vector<QueryId>& queries);

/// The Appro-S admission step for demand `di` of query `q`.  Prices the
/// demand's candidate `row` (its deadline-feasible sites) against `state`
/// with the kernel: the price of site l is the rate at which uniform raising
/// makes dual constraint (9) tight there — θ_l + need·(1/A(v_l)), the
/// site's relative fill after the placement, plus the deadline-budget term
/// η·(delay/deadline), plus μ/K when l holds no replica yet.  Minimizing it
/// sends demands where computing resource is least scarce, keeping tiny
/// cloudlets for deadline-bound queries.
///
/// When `audit` is given it records the decision: the winner's price terms,
/// or the rejection reason classified over the row from the state's loads,
/// availabilities and replica bytes.  On success it raises μ_m when the
/// winner needs a fresh replica (Algorithm 1 line 7), θ_l by need /
/// state.avail[l], and y_m to make (9) tight at l (line 9).  It returns
/// the choice; the caller places the replica and the assignment.
/// `state.theta` must be `duals`'s θ.
PricedChoice admit_demand(const Instance& inst, const Query& q,
                          std::size_t di, const CandidateSoA& row,
                          const PricingState& state, double need,
                          DualState& duals, obs::AuditEntry* audit);

/// Audit bookkeeping of an atomic abort: the entries from `begin` up to the
/// failing demand's (the last one) are re-marked kAtomicRollback, keeping
/// their site and prices; the failing entry keeps its own reason.
void mark_atomic_rollback(std::vector<obs::AuditEntry>* audit,
                          std::size_t begin);

/// Run `step(di, entry)` for the demands of `q` in demand order; the step
/// returns true when it placed demand `di`.  `entry` is a fresh entry
/// appended to `audit` for the step to fill (nullptr when `audit` is).
///
/// Atomic mode runs the query under a plan savepoint, plus a dual savepoint
/// when `duals` is given, and stops at the first failed demand: both are
/// rolled back and the query's audit entries re-marked.  Non-atomic mode
/// takes no savepoint and runs every demand; each stands on its own.
/// Returns the number of demands left placed.
template <typename Step>
std::size_t admit_query(const Query& q, ReplicaPlan& plan, DualState* duals,
                        bool atomic, std::vector<obs::AuditEntry>* audit,
                        Step&& step) {
  const std::size_t n = q.demands.size();
  auto entry = [audit]() -> obs::AuditEntry* {
    return audit != nullptr ? &audit->emplace_back() : nullptr;
  };
  if (!atomic) {
    std::size_t placed = 0;
    for (std::size_t di = 0; di < n; ++di) placed += step(di, entry()) ? 1 : 0;
    return placed;
  }
  const std::size_t audit_begin = audit != nullptr ? audit->size() : 0;
  const ReplicaPlan::Savepoint sp_plan = plan.savepoint();
  const DualState::Savepoint sp_duals =
      duals != nullptr ? duals->savepoint() : 0;
  std::size_t placed = 0;
  while (placed < n && step(placed, entry())) ++placed;
  if (placed < n) {
    plan.rollback_to(sp_plan);
    if (duals != nullptr) duals->rollback_to(sp_duals);
    mark_atomic_rollback(audit, audit_begin);
    placed = 0;
  }
  plan.commit();
  if (duals != nullptr) duals->commit();
  return placed;
}

}  // namespace edgerep
