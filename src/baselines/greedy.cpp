#include "baselines/greedy.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "cloud/delay.h"
#include "core/admission.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace edgerep {

namespace {

/// Sites ordered by residual capacity, largest first (recomputed per demand
/// because assignments change the residuals).
std::vector<SiteId> by_residual_desc(const Instance& inst,
                                     const ReplicaPlan& plan) {
  std::vector<SiteId> order(inst.sites().size());
  for (SiteId l = 0; l < order.size(); ++l) order[l] = l;
  std::stable_sort(order.begin(), order.end(), [&](SiteId a, SiteId b) {
    return plan.residual(a) > plan.residual(b);
  });
  return order;
}

bool admit_demand_greedy(const Instance& inst, const Query& q,
                         const DatasetDemand& dd, ReplicaPlan& plan,
                         std::size_t di, obs::AuditEntry* audit) {
  const double need = resource_demand(inst, q, dd);
  if (audit != nullptr) {
    audit->query = q.id;
    audit->demand = static_cast<std::uint32_t>(di);
    audit->dataset = dd.dataset;
  }
  auto admitted_at = [&](SiteId l, bool placed) {
    if (audit != nullptr) {
      audit->admitted = true;
      audit->reason = obs::AuditReason::kAdmitted;
      audit->site = l;
      audit->placed_replica = placed;
    }
    return true;
  };
  // First try sites that already hold a replica (no budget cost), largest
  // residual capacity first.
  for (const SiteId l : by_residual_desc(inst, plan)) {
    if (!plan.has_replica(dd.dataset, l)) continue;
    if (deadline_ok(inst, q, dd, l) && plan.fits(l, need)) {
      plan.assign(q.id, dd.dataset, l);
      return admitted_at(l, /*placed=*/false);
    }
  }
  // Then burn replica budget in capacity order: place at the largest
  // available site, check the deadline afterwards, move on if it fails.
  for (const SiteId l : by_residual_desc(inst, plan)) {
    if (plan.has_replica(dd.dataset, l)) continue;
    if (plan.replica_count(dd.dataset) >= inst.max_replicas()) break;
    plan.place_replica(dd.dataset, l);  // spent even if the check fails
    if (deadline_ok(inst, q, dd, l) && plan.fits(l, need)) {
      plan.assign(q.id, dd.dataset, l);
      return admitted_at(l, /*placed=*/true);
    }
  }
  if (audit != nullptr) {
    // Classified against the plan *after* the failed attempt: greedy burns
    // budget on replicas it places speculatively, and that spent budget is
    // what binds.
    obs::RejectionClassifier why(plan.replica_count(dd.dataset) <
                                 inst.max_replicas());
    for (const Site& s : inst.sites()) {
      if (deadline_ok(inst, q, dd, s.id)) {
        why.site(plan.fits(s.id, need), plan.has_replica(dd.dataset, s.id));
      }
    }
    audit->admitted = false;
    audit->reason = why.reason();
  }
  return false;
}

BaselineResult run(const Instance& inst, const GreedyOptions& opts) {
  EDGEREP_TRACE_SCOPE("greedy.run");
  if (!inst.finalized()) {
    throw std::invalid_argument("greedy: instance not finalized");
  }
  std::vector<obs::AuditEntry> audit_entries;
  std::vector<obs::AuditEntry>* audit =
      obs::audit_enabled() ? &audit_entries : nullptr;
  BaselineResult res{ReplicaPlan(inst), {}, 0, 0};
  for (const Query& q : inst.queries()) {
    const std::size_t placed = admit_query(
        q, res.plan, /*duals=*/nullptr, opts.atomic_queries, audit,
        [&](std::size_t di, obs::AuditEntry* e) {
          return admit_demand_greedy(inst, q, q.demands[di], res.plan, di, e);
        });
    res.demands_assigned += placed;
    res.demands_rejected += q.demands.size() - placed;
  }
  res.metrics = evaluate(res.plan);
  if (audit != nullptr) {
    for (obs::AuditEntry& e : audit_entries) e.algorithm = "greedy";
    obs::audit_log().record_batch(audit_entries);
  }
  if (obs::metrics_enabled()) {
    static obs::Counter& runs = obs::metrics().counter(
        "edgerep_greedy_runs_total", "greedy baseline runs");
    static obs::Counter& dem_adm = obs::metrics().counter(
        "edgerep_greedy_demands_admitted_total",
        "demands assigned by the greedy baseline");
    static obs::Counter& dem_rej = obs::metrics().counter(
        "edgerep_greedy_demands_rejected_total",
        "demands rejected by the greedy baseline");
    static obs::Counter& replicas = obs::metrics().counter(
        "edgerep_greedy_replicas_placed_total",
        "replicas in plans produced by the greedy baseline");
    runs.inc();
    dem_adm.inc(res.demands_assigned);
    dem_rej.inc(res.demands_rejected);
    replicas.inc(res.plan.total_replicas());
  }
  return res;
}

}  // namespace

BaselineResult greedy_s(const Instance& inst, const GreedyOptions& opts) {
  for (const Query& q : inst.queries()) {
    if (q.demands.size() != 1) {
      throw std::invalid_argument(
          "greedy_s: special case requires single-dataset queries");
    }
  }
  return run(inst, opts);
}

BaselineResult greedy_g(const Instance& inst, const GreedyOptions& opts) {
  return run(inst, opts);
}

}  // namespace edgerep
