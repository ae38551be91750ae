#include "core/local_search.h"

#include <algorithm>

#include "cloud/delay.h"
#include "core/admission.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace edgerep {

namespace {

/// Relocate assigned demands toward sites with more head-room.  A move is
/// applied when the destination's residual *after* the move still exceeds
/// the source's residual *before* it — load strictly spreads, so sweeps
/// terminate.
std::size_t rebalance_pass(ReplicaPlan& plan) {
  const Instance& inst = plan.instance();
  std::size_t moves = 0;
  for (const Query& q : inst.queries()) {
    for (const DatasetDemand& dd : q.demands) {
      const auto current = plan.assignment(q.id, dd.dataset);
      if (!current) continue;
      const double need = resource_demand(inst, q, dd);
      SiteId best = kInvalidSite;
      double best_residual = plan.residual(*current);
      for (const SiteId l : plan.replica_sites(dd.dataset)) {
        if (l == *current) continue;
        if (!deadline_ok(inst, q, dd, l)) continue;
        if (!plan.fits(l, need)) continue;
        const double after = plan.residual(l) - need;
        if (after > best_residual + 1e-9) {
          best_residual = after;
          best = l;
        }
      }
      if (best != kInvalidSite) {
        plan.unassign(q.id, dd.dataset);
        plan.assign(q.id, dd.dataset, best);
        ++moves;
      }
    }
  }
  return moves;
}

/// Try to fully admit query q in place through admit_query in atomic mode:
/// a failed demand rolls back the partial work, including any replica
/// reclaimed in step 3.
bool try_admit(ReplicaPlan& plan, const Query& q) {
  const Instance& inst = plan.instance();
  auto admit_demand = [&](std::size_t di, obs::AuditEntry*) {
    const DatasetDemand& dd = q.demands[di];
    if (plan.assignment(q.id, dd.dataset)) return true;
    const double need = resource_demand(inst, q, dd);
    SiteId chosen = kInvalidSite;
    // 1. An existing replica site.
    for (const SiteId l : plan.replica_sites(dd.dataset)) {
      if (deadline_ok(inst, q, dd, l) && plan.fits(l, need)) {
        chosen = l;
        break;
      }
    }
    // 2. A fresh replica within the budget (max head-room first).
    if (chosen == kInvalidSite) {
      auto fresh_candidate = [&]() {
        SiteId best = kInvalidSite;
        for (const Site& s : inst.sites()) {
          if (plan.has_replica(dd.dataset, s.id)) continue;
          if (!deadline_ok(inst, q, dd, s.id)) continue;
          if (!plan.fits(s.id, need)) continue;
          if (best == kInvalidSite ||
              plan.residual(s.id) > plan.residual(best)) {
            best = s.id;
          }
        }
        return best;
      };
      if (plan.replica_count(dd.dataset) < inst.max_replicas()) {
        chosen = fresh_candidate();
      } else {
        // 3. Reclaim budget from an unused replica of this dataset.
        for (const SiteId l : plan.replica_sites(dd.dataset)) {
          if (plan.replica_users(dd.dataset, l) == 0) {
            plan.remove_replica(dd.dataset, l);
            chosen = fresh_candidate();
            break;
          }
        }
      }
      if (chosen != kInvalidSite) plan.place_replica(dd.dataset, chosen);
    }
    if (chosen == kInvalidSite) return false;
    plan.assign(q.id, dd.dataset, chosen);
    return true;
  };
  return admit_query(q, plan, /*duals=*/nullptr, /*atomic=*/true,
                     /*audit=*/nullptr, admit_demand) == q.demands.size();
}

}  // namespace

LocalSearchResult improve_plan(ReplicaPlan plan,
                               const LocalSearchOptions& opts) {
  EDGEREP_TRACE_SCOPE("local_search.improve");
  LocalSearchResult res{std::move(plan), {}, 0, 0, 0};
  const Instance& inst = res.plan.instance();
  for (std::size_t pass = 0; pass < opts.max_passes; ++pass) {
    EDGEREP_TRACE_SCOPE("local_search.pass");
    ++res.passes;
    res.relocations += rebalance_pass(res.plan);
    std::size_t admitted_this_pass = 0;
    for (const Query& q : inst.queries()) {
      if (res.plan.admitted(q.id)) continue;
      if (try_admit(res.plan, q)) ++admitted_this_pass;
    }
    res.queries_admitted += admitted_this_pass;
    if (admitted_this_pass == 0) break;
  }
  res.metrics = evaluate(res.plan);
  if (obs::metrics_enabled()) {
    static obs::Counter& runs = obs::metrics().counter(
        "edgerep_local_search_runs_total", "improve_plan calls");
    static obs::Counter& passes = obs::metrics().counter(
        "edgerep_local_search_passes_total", "local-search sweeps executed");
    static obs::Counter& moves = obs::metrics().counter(
        "edgerep_local_search_relocations_total",
        "assignments relocated by rebalancing");
    static obs::Counter& admitted = obs::metrics().counter(
        "edgerep_local_search_queries_admitted_total",
        "previously rejected queries admitted by local search");
    runs.inc();
    passes.inc(res.passes);
    moves.inc(res.relocations);
    admitted.inc(res.queries_admitted);
  }
  return res;
}

}  // namespace edgerep
