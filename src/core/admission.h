// The admission transaction of Algorithms 1–2, written once.
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
#include "core/primal_dual.h"
#include "obs/audit.h"

namespace edgerep {

/// Rank `queries` by `opts.order` (kRandom shuffles with `opts.seed`).  The
/// list is sorted by id first, so the result depends only on the set, not
/// on the order its members were collected in.
void order_queries(const Instance& inst, const ApproOptions& opts,
                   std::vector<QueryId>& queries);

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
