#include "core/appro.h"

#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/admission.h"
#include "core/candidate_index.h"
#include "core/pricing.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/prefetch.h"

namespace edgerep {

namespace {

/// Lookahead distances of the admission loop, in queries: the query record
/// and slot offsets, then what they point to (the demand list, row bounds,
/// needs, assignment slots, y and μ), then the rows themselves.
constexpr std::size_t kFarAhead = 16;
constexpr std::size_t kNearAhead = 8;
constexpr std::size_t kRowsAhead = 4;

ApproResult run_appro(const Instance& inst, const ApproOptions& opts) {
  EDGEREP_TRACE_SCOPE("appro.run");
  if (!inst.finalized()) {
    throw std::invalid_argument("appro: instance not finalized");
  }
  const CandidateIndex index = [&inst] {
    EDGEREP_TRACE_SCOPE("appro.candidate_index");
    return CandidateIndex(inst);
  }();
  // Audit entries accumulate locally and flush to the global log once, so
  // per-demand recording never takes the log mutex.
  std::vector<obs::AuditEntry> audit_entries;
  std::vector<obs::AuditEntry>* audit =
      obs::audit_enabled() ? &audit_entries : nullptr;
  std::size_t queries_admitted = 0;
  std::size_t queries_rejected = 0;
  ApproResult res{ReplicaPlan(inst), DualState(inst), 0.0, {}, 0, 0};
  const SiteAvailability& avail = index.availability();
  ReplicaMaskWorkspace mask;
  mask.resize(inst.sites().size());
  {
    EDGEREP_TRACE_SCOPE("appro.admission");
    const std::span<const Query> queries = inst.queries();
    std::vector<QueryId> order(queries.size());
    std::iota(order.begin(), order.end(), QueryId{0});
    order_queries(inst, opts, order);
    // The order is unrelated to the memory layout, so each step's reads
    // would miss one after another.  Ask for them ahead, in stages whose
    // reads hit the lines the earlier stage fetched.
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (i + kFarAhead < order.size()) {
        const QueryId m = order[i + kFarAhead];
        prefetch_object(queries[m]);
        index.prefetch_offset(m);
        res.plan.prefetch_offset(m);
      }
      if (i + kNearAhead < order.size()) {
        const QueryId m = order[i + kNearAhead];
        const std::vector<DatasetDemand>& demands = queries[m].demands;
        prefetch_lines(demands.data(), demands.size(), 2);
        index.prefetch_slots(m);
        res.plan.prefetch_assignments(m);
        res.duals.prefetch(m);
      }
      if (i + kRowsAhead < order.size()) {
        index.prefetch_rows(order[i + kRowsAhead]);
      }
      const Query& q = queries[order[i]];
      const std::size_t placed = admit_query(
          q, res.plan, &res.duals, opts.atomic_queries, audit,
          [&](std::size_t di, obs::AuditEntry* e) {
            const DatasetId n = q.demands[di].dataset;
            const CandidateSoA row = index.soa(q.id, di);
            const double need = index.need(q.id, di);
            const std::vector<SiteId>& reps = res.plan.replica_sites(n);
            mask.set(reps);
            const bool budget_left =
                res.plan.replica_count(n) < inst.max_replicas();
            PricingState state{res.duals.theta_data(), avail.inv(),
                               avail.avail(), res.plan.loads(), mask.bytes(),
                               budget_left};
            if (opts.strict_reuse && state.budget_left) {
              // ABL-REUSE: a feasible replica site wins outright, so fresh
              // sites compete only when a replica-only probe finds none.
              PricingState probe = state;
              probe.budget_left = false;
              state.budget_left =
                  price_candidates(row, probe, need, kEtaWeight, 0.0)
                      .candidate == PricedChoice::kNoCandidate;
            }
            const PricedChoice ch =
                admit_demand(inst, q, di, row, state, need, res.duals, e);
            mask.clear(reps);
            if (ch.candidate == PricedChoice::kNoCandidate) return false;
            if (ch.needs_replica) res.plan.place_replica(n, ch.site);
            res.plan.assign(q.id, n, ch.site);
            return true;
          });
      res.demands_assigned += placed;
      res.demands_rejected += q.demands.size() - placed;
      ++(placed == q.demands.size() ? queries_admitted : queries_rejected);
    }
  }
  {
    EDGEREP_TRACE_SCOPE("appro.dual_repair");
    res.duals.repair();
  }
  res.dual_objective = res.duals.objective();
  res.metrics = evaluate(res.plan);
  if (audit != nullptr) {
    for (obs::AuditEntry& e : audit_entries) e.algorithm = "appro";
    obs::audit_log().record_batch(audit_entries);
  }
  if (obs::metrics_enabled()) {
    static obs::Counter& runs =
        obs::metrics().counter("edgerep_appro_runs_total", "run_appro calls");
    static obs::Counter& dem_adm = obs::metrics().counter(
        "edgerep_appro_demands_admitted_total", "demands assigned by appro");
    static obs::Counter& dem_rej = obs::metrics().counter(
        "edgerep_appro_demands_rejected_total", "demands rejected by appro");
    static obs::Counter& q_adm = obs::metrics().counter(
        "edgerep_appro_queries_admitted_total",
        "queries fully admitted by appro");
    static obs::Counter& q_rej = obs::metrics().counter(
        "edgerep_appro_queries_rejected_total", "queries rejected by appro");
    static obs::Counter& replicas = obs::metrics().counter(
        "edgerep_appro_replicas_placed_total",
        "replicas in plans produced by appro");
    runs.inc();
    dem_adm.inc(res.demands_assigned);
    dem_rej.inc(res.demands_rejected);
    q_adm.inc(queries_admitted);
    q_rej.inc(queries_rejected);
    replicas.inc(res.plan.total_replicas());
  }
  return res;
}

}  // namespace

ApproResult appro_s(const Instance& inst, const ApproOptions& opts) {
  for (const Query& q : inst.queries()) {
    if (q.demands.size() != 1) {
      throw std::invalid_argument(
          "appro_s: query " + std::to_string(q.id) +
          " demands " + std::to_string(q.demands.size()) +
          " datasets; the special case requires exactly one (use appro_g)");
    }
  }
  return run_appro(inst, opts);
}

ApproResult appro_g(const Instance& inst, const ApproOptions& opts) {
  return run_appro(inst, opts);
}

}  // namespace edgerep
