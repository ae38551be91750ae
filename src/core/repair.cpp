#include "core/repair.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "cloud/delay.h"
#include "core/admission.h"
#include "core/pricing.h"
#include "obs/audit.h"
#include "obs/causal_sink.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace edgerep {

RepairEngine::RepairEngine(const Instance& inst)
    : inst_(&inst), index_(inst) {}

RepairStats RepairEngine::repair(ReplicaPlan& plan, DualState& duals,
                                 const FaultState& faults,
                                 const RepairOptions& opts) const {
  EDGEREP_TRACE_SCOPE("repair.run");
  const Instance& inst = *inst_;
  if (&plan.instance() != inst_ || &faults.instance() != inst_ ||
      &duals.instance() != inst_) {
    throw std::invalid_argument("repair: plan/duals/faults built for a "
                                "different instance");
  }

  RepairStats stats;
  // Evictions and re-admissions are causal steps (obs/causal_sink.h).  With
  // no simulation clock their records carry time 0; re-admission logs its
  // prices to the sink's audit buffer.
  obs::CausalSink sink(obs::Producer::kRepair);
  std::vector<obs::AuditEntry>* const audit = sink.audit_entries();
  std::vector<QueryId> displaced;
  std::vector<char> evicted(inst.queries().size(), 0);
  const std::size_t replicas_before = plan.total_replicas();

  // Evict one query entirely: unassign every demand (crediting the ledger)
  // and zero its dual y.  Queries stay atomic through repair — a displaced
  // query either re-seats every demand or contributes nothing.
  auto evict_query = [&](const Query& q) {
    if (evicted[q.id]) return;
    evicted[q.id] = 1;
    for (std::size_t di = 0; di < q.demands.size(); ++di) {
      const DatasetDemand& dd = q.demands[di];
      const auto site = plan.assignment(q.id, dd.dataset);
      if (!site) continue;
      if (sink.on()) {
        // flags 2: repair eviction; site: where it ran before the fault.
        sink.emit(obs::RecordKind::kShed,
                  {.a = q.id,
                   .b = dd.dataset,
                   .site = *site,
                   .arg = static_cast<std::uint8_t>(di),
                   .flags = 2});
      }
      plan.unassign(q.id, dd.dataset);
    }
    duals.set_y(q.id, 0.0);
    ++stats.queries_evicted;
    stats.evicted_volume += inst.demanded_volume(q.id);
    displaced.push_back(q.id);
  };

  if (opts.full_recompute) {
    // Oracle: forget the incumbent entirely and re-run fault-aware
    // admission over the whole query population.
    EDGEREP_TRACE_SCOPE("repair.full_recompute_reset");
    for (const Query& q : inst.queries()) {
      if (plan.assigned_demands(q.id) > 0) evict_query(q);
    }
    displaced.clear();
    displaced.reserve(inst.queries().size());
    for (const Query& q : inst.queries()) displaced.push_back(q.id);
    plan = ReplicaPlan(inst);
    duals = DualState(inst);
    stats.replicas_lost = replicas_before;
  } else {
    {
      EDGEREP_TRACE_SCOPE("repair.evict");
      const bool link_faults = faults.any_link_down();
      // Pass 1: assignments invalidated outright — evaluation site down,
      // home site down, or effective delay past the deadline.
      for (const Query& q : inst.queries()) {
        bool bad = false;
        bool any = false;
        for (const DatasetDemand& dd : q.demands) {
          const auto site = plan.assignment(q.id, dd.dataset);
          if (!site) continue;
          any = true;
          if (!faults.site_up(*site) ||
              (link_faults && !faults.deadline_ok(q, dd, *site))) {
            bad = true;
            break;
          }
        }
        if (any && !faults.site_up(q.home)) bad = true;
        if (bad) evict_query(q);
      }
      // Pass 2: replicas stored on crashed sites are lost; their budget
      // frees up for re-placement (every user was evicted in pass 1).
      for (const Dataset& d : inst.datasets()) {
        const std::vector<SiteId> sites = plan.replica_sites(d.id);
        for (const SiteId s : sites) {
          if (faults.site_up(s)) continue;
          plan.remove_replica(d.id, s);
          ++stats.replicas_lost;
        }
      }
      // Pass 3: degraded sites may now be overcommitted; shed queries in
      // ascending (demanded volume, id) order — a deterministic greedy that
      // sacrifices the least objective per unit of freed capacity — until
      // the committed load fits the effective availability.
      for (const Site& s : inst.sites()) {
        if (!faults.site_up(s.id)) continue;
        const double eff = faults.available(s.id);
        if (plan.load(s.id) <= eff + kCapacityEps) continue;
        std::vector<QueryId> here;
        for (const Query& q : inst.queries()) {
          if (evicted[q.id]) continue;
          for (const DatasetDemand& dd : q.demands) {
            const auto site = plan.assignment(q.id, dd.dataset);
            if (site && *site == s.id) {
              here.push_back(q.id);
              break;
            }
          }
        }
        std::sort(here.begin(), here.end(), [&](QueryId a, QueryId b) {
          const double va = inst.demanded_volume(a);
          const double vb = inst.demanded_volume(b);
          if (va != vb) return va < vb;
          return a < b;
        });
        for (const QueryId m : here) {
          if (plan.load(s.id) <= eff + kCapacityEps) break;
          evict_query(inst.query(m));
        }
      }
    }
    {
      // Re-price θ at every site the faults or evictions touched: uniform
      // raising maintains θ_l = load_l / A(v_l), so after capacity or load
      // changed we reset it to load / effective availability (0 for downed
      // sites — they are excluded from candidacy anyway).
      EDGEREP_TRACE_SCOPE("repair.reprice");
      for (const Site& s : inst.sites()) {
        const double scale = faults.capacity_scale(s.id);
        const bool touched = scale != 1.0 || stats.queries_evicted > 0;
        if (!touched) continue;
        const double eff = faults.available(s.id);
        duals.set_theta(s.id, eff > 0.0 ? plan.load(s.id) / eff : 0.0);
      }
    }
  }

  {
    EDGEREP_TRACE_SCOPE("repair.readmit");
    // The admission step over the sites of each fault-free row that pass
    // the fault filter (repair.h, step 3), priced against A·scale.
    const bool link_faults = faults.any_link_down();
    const SiteAvailability avail(
        inst, [&faults](SiteId l) { return faults.capacity_scale(l); });
    ReplicaMaskWorkspace mask;
    mask.resize(inst.sites().size());
    std::vector<SiteId> row_site;
    std::vector<double> row_dod;
    auto admit = [&](const Query& q, std::size_t di, obs::AuditEntry* e) {
      const DatasetDemand& dd = q.demands[di];
      const CandidateSoA cands = index_.soa(q.id, di);
      row_site.clear();
      row_dod.clear();
      for (std::size_t i = 0; i < cands.size(); ++i) {
        const SiteId l = cands.site[i];
        if (!faults.site_up(l)) continue;
        double dod = cands.dod[i];
        if (link_faults) {
          const double ed = faults.evaluation_delay(q, dd, l);
          if (ed > q.deadline) continue;
          dod = ed / q.deadline;
        }
        row_site.push_back(l);
        row_dod.push_back(dod);
      }
      const std::vector<SiteId>& reps = plan.replica_sites(dd.dataset);
      mask.set(reps);
      const bool budget_left =
          plan.replica_count(dd.dataset) < inst.max_replicas();
      const PricedChoice ch = admit_demand(
          inst, q, di, {row_site, row_dod},
          {duals.theta_data(), avail.inv(), avail.avail(), plan.loads(),
           mask.bytes(), budget_left},
          index_.need(q.id, di), duals, e);
      mask.clear(reps);
      if (ch.candidate == PricedChoice::kNoCandidate) return false;
      if (ch.needs_replica) plan.place_replica(dd.dataset, ch.site);
      plan.assign(q.id, dd.dataset, ch.site);
      return true;
    };
    order_queries(inst, opts.admission, displaced);
    for (const QueryId m : displaced) {
      const Query& q = inst.query(m);
      if (q.demands.empty()) continue;
      if (!faults.site_up(q.home)) {
        // Nowhere to aggregate results: the query is infeasible outright.
        if (audit != nullptr) {
          obs::AuditEntry& e = audit->emplace_back();
          e.query = q.id;
          e.dataset = q.demands[0].dataset;
          e.admitted = false;
          e.reason = obs::AuditReason::kNoDeadlineFeasibleSite;
        }
        continue;
      }
      const std::size_t placed =
          admit_query(q, plan, &duals, /*atomic=*/true, audit,
                      [&](std::size_t di, obs::AuditEntry* e) {
                        return admit(q, di, e);
                      });
      if (placed < q.demands.size()) continue;
      ++stats.queries_readmitted;
      stats.readmitted_volume += inst.demanded_volume(m);
      if (sink.on()) {
        for (std::size_t di = 0; di < q.demands.size(); ++di) {
          const DatasetId n = q.demands[di].dataset;
          const auto site = plan.assignment(q.id, n);
          if (!site) continue;
          sink.emit(obs::RecordKind::kRelocate,
                    {.a = q.id,
                     .b = n,
                     .site = *site,
                     .arg = static_cast<std::uint8_t>(di),
                     .flags = static_cast<std::uint16_t>(
                         inst.site(*site).is_data_center() ? 1 : 0)});
        }
      }
    }
    stats.queries_lost = stats.queries_evicted >= stats.queries_readmitted
                             ? stats.queries_evicted - stats.queries_readmitted
                             : 0;
  }
  stats.replicas_placed =
      plan.total_replicas() + stats.replicas_lost >= replicas_before
          ? plan.total_replicas() + stats.replicas_lost - replicas_before
          : 0;

  duals.repair();

  sink.finish();
  if (obs::metrics_enabled()) {
    static obs::Counter& runs = obs::metrics().counter(
        "edgerep_repair_runs_total", "repair engine invocations");
    static obs::Counter& evicted_total = obs::metrics().counter(
        "edgerep_repair_queries_evicted_total",
        "queries displaced by injected faults");
    static obs::Counter& readmitted_total = obs::metrics().counter(
        "edgerep_repair_queries_readmitted_total",
        "displaced queries re-seated by repair");
    static obs::Counter& lost_total = obs::metrics().counter(
        "edgerep_repair_queries_lost_total",
        "displaced queries repair could not re-seat");
    static obs::Counter& replicas_lost_total = obs::metrics().counter(
        "edgerep_repair_replicas_lost_total",
        "replicas lost to crashed sites");
    static obs::Counter& replicas_placed_total = obs::metrics().counter(
        "edgerep_repair_replicas_placed_total",
        "fresh replicas placed during re-admission");
    static obs::Gauge& evicted_volume = obs::metrics().gauge(
        "edgerep_repair_evicted_volume_gb",
        "cumulative demanded volume displaced by faults across repair runs");
    runs.inc();
    evicted_total.inc(stats.queries_evicted);
    readmitted_total.inc(stats.queries_readmitted);
    lost_total.inc(stats.queries_lost);
    replicas_lost_total.inc(stats.replicas_lost);
    replicas_placed_total.inc(stats.replicas_placed);
    evicted_volume.add(stats.evicted_volume);
  }
  return stats;
}

ValidationResult validate_under_faults(const ReplicaPlan& plan,
                                       const FaultState& faults) {
  const Instance& inst = plan.instance();
  if (&faults.instance() != &inst) {
    throw std::invalid_argument("validate_under_faults: fault state built "
                                "for a different instance");
  }
  ValidationResult vr = validate(plan);  // fault-free constraints first
  auto violation = [&vr](std::string msg) {
    vr.ok = false;
    vr.violations.push_back(std::move(msg));
  };
  for (const Dataset& d : inst.datasets()) {
    for (const SiteId s : plan.replica_sites(d.id)) {
      if (!faults.site_up(s)) {
        violation("replica of dataset " + std::to_string(d.id) +
                  " on downed site " + std::to_string(s));
      }
    }
  }
  for (const Site& s : inst.sites()) {
    const double eff = faults.available(s.id);
    if (plan.load(s.id) > eff + 1e-6) {
      violation("site " + std::to_string(s.id) + " load " +
                std::to_string(plan.load(s.id)) +
                " exceeds effective availability " + std::to_string(eff));
    }
  }
  for (const Query& q : inst.queries()) {
    for (const DatasetDemand& dd : q.demands) {
      const auto site = plan.assignment(q.id, dd.dataset);
      if (!site) continue;
      if (!faults.site_up(*site)) {
        violation("query " + std::to_string(q.id) + " assigned to downed "
                  "site " + std::to_string(*site));
      } else if (!faults.deadline_ok(q, dd, *site)) {
        violation("query " + std::to_string(q.id) + " misses its deadline "
                  "at site " + std::to_string(*site) +
                  " under effective delays");
      }
      if (!faults.site_up(q.home)) {
        violation("query " + std::to_string(q.id) + " assigned while its "
                  "home site " + std::to_string(q.home) + " is down");
      }
    }
  }
  return vr;
}

}  // namespace edgerep
