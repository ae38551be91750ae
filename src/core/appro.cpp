#include "core/appro.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "cloud/delay.h"
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

/// One Appro-S admission step for a single (query, demand): pick the
/// cheapest feasible site, placing a replica when needed.  Returns true and
/// updates plan/duals on success.  When `audit` is non-null, the decision
/// and (on success) the winning site's dual price breakdown are recorded
/// into it; the admission logic is unchanged either way.
///
/// The dual price of serving a demand at site l is the rate at which uniform
/// raising makes constraint (9) tight there: the capacity term θ_l +
/// need·(1/A(v_l)) is the site's relative fill *after* the placement (θ
/// evolves as relative load), the η term prices deadline-budget consumption,
/// and fresh replicas pay a creation price μ amortized over the budget K.
/// Minimizing it sends demands where computing resource is least scarce —
/// large remote data centers when the deadline permits — preserving the tiny
/// cloudlets for deadline-bound queries: the paper's "overall perspective,
/// jointly considering data replication and query assignment".
bool admit_demand(const Instance& inst, const CandidateIndex& index,
                  const Query& q, std::size_t di, ReplicaPlan& plan,
                  DualState& duals, const ApproOptions& opts,
                  ReplicaMaskWorkspace& mask,
                  obs::AuditEntry* audit = nullptr) {
  const DatasetDemand& dd = q.demands[di];
  const double need = index.need(q.id, di);
  const bool budget_left = plan.replica_count(dd.dataset) < inst.max_replicas();
  const double mu_term =
      kReplicaWeight / static_cast<double>(inst.max_replicas());

  SiteId best_site = kInvalidSite;
  bool best_needs_replica = false;
  double best_price = 0.0;

  if (opts.strict_reuse) {
    // Ablation: sites that already hold a replica take absolute priority.
    // The per-demand factors (need, the capacity reciprocal, the η base's
    // 1/deadline) come precomputed; the evaluation delay is computed once
    // per site and reused for both the deadline gate and the η term.
    const double inv_deadline = 1.0 / q.deadline;
    auto consider = [&](SiteId l, bool needs_replica) {
      const double delay = evaluation_delay(inst, q, dd, l);
      if (delay > q.deadline) return;
      if (!plan.fits(l, need)) return;
      double p = duals.theta(l) + need * index.inv_avail()[l] +
                 kEtaWeight * (delay * inv_deadline);
      if (needs_replica) p += mu_term;
      if (best_site == kInvalidSite || p < best_price) {
        best_site = l;
        best_needs_replica = needs_replica;
        best_price = p;
      }
    };
    for (const SiteId l : plan.replica_sites(dd.dataset)) {
      consider(l, /*needs_replica=*/false);
    }
    if (best_site == kInvalidSite && budget_left) {
      for (const Site& s : inst.sites()) {
        if (!plan.has_replica(dd.dataset, s.id)) {
          consider(s.id, /*needs_replica=*/true);
        }
      }
    }
  } else {
    // Default: replica sites and fresh placements compete on dual price
    // (fresh ones carry the μ surcharge).  The kernel flips the replica list
    // into a byte-mask for one pass over the SoA candidate buffers (O(K)
    // set/clear instead of a per-candidate list walk).
    const std::vector<SiteId>& reps = plan.replica_sites(dd.dataset);
    mask.set(reps);
    const PricedChoice ch = price_candidates(
        index.soa(q.id, di),
        {duals.theta_data(), index.inv_avail(), index.avail(), plan.loads(),
         mask.bytes(), budget_left},
        need, kEtaWeight, mu_term);
    mask.clear(reps);
    if (ch.candidate != PricedChoice::kNoCandidate) {
      best_site = ch.site;
      best_needs_replica = ch.needs_replica;
      best_price = ch.price;
    }
  }

  if (audit != nullptr) {
    audit->query = q.id;
    audit->demand = static_cast<std::uint32_t>(di);
    audit->dataset = dd.dataset;
    if (best_site == kInvalidSite) {
      audit->admitted = false;
      // Audit-only: the candidates are the deadline-feasible sites.
      obs::RejectionClassifier why(budget_left);
      for (const SiteId l : index.soa(q.id, di).site) {
        why.site(plan.fits(l, need), plan.has_replica(dd.dataset, l));
      }
      audit->reason = why.reason();
    } else {
      audit->admitted = true;
      audit->reason = obs::AuditReason::kAdmitted;
      audit->site = best_site;
      audit->placed_replica = best_needs_replica;
      audit->theta_term = duals.theta(best_site);
      audit->capacity_term = need * index.inv_avail()[best_site];
      audit->eta_term =
          kEtaWeight * (evaluation_delay(inst, q, dd, best_site) / q.deadline);
      audit->mu_term = best_needs_replica ? mu_term : 0.0;
      audit->total_price = best_price;
    }
  }

  if (best_site == kInvalidSite) return false;
  if (best_needs_replica) {
    plan.place_replica(dd.dataset, best_site);
    duals.raise_mu(q.id);  // Algorithm 1 line 7: one replica created
  }
  plan.assign(q.id, dd.dataset, best_site);
  duals.raise_theta(best_site, need);  // uniform raise of the capacity price
  // Record the y that makes (9) tight at the chosen site (line 9).
  const double vol = inst.dataset(dd.dataset).volume;
  const double tight = std::max(
      0.0, vol * (1.0 - q.rate * duals.theta(best_site)));
  duals.set_y(q.id, std::max(duals.y(q.id), tight));
  return true;
}

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
            return admit_demand(inst, index, q, di, res.plan, res.duals, opts,
                                mask, e);
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
