#include "stream/shard_engine.h"

#include <algorithm>

#include "core/admission.h"

namespace edgerep {

ShardEngine::ShardEngine(const Instance& inst, const ShardMap& map,
                         std::uint32_t shard, const RowSource& rows)
    : inst_(&inst),
      map_(&map),
      rows_(&rows),
      shard_(shard),
      num_sites_(inst.sites().size()),
      duals_(inst),
      avail_(inst),
      scratch_(num_sites_) {
  local_load_.assign(num_sites_, 0.0);
  in_scan_.assign(num_sites_, 0);
  for (const SiteId s : map.scan_sites(shard)) in_scan_[s] = 1;
  const std::size_t datasets = inst.datasets().size();
  replica_mask_.assign(datasets * num_sites_, 0);
  mask_synced_.assign(datasets, 0);
  replica_seen_.assign(datasets, 0);
  const std::size_t scan = map.scan_sites(shard).size();
  cand_site_.reserve(scan);
  cand_dod_.reserve(scan);
}

void ShardEngine::begin_epoch(const ReplicaPlan& plan) {
  // Drop last epoch's pending bits: winners reappear below as newly
  // committed plan replicas, losers vanish.
  for (const AdmissionIntent::Placement& p : epoch_pending_) {
    replica_mask_[static_cast<std::size_t>(p.dataset) * num_sites_ + p.site] =
        0;
  }
  epoch_pending_.clear();

  // Bit-exact load snapshot: these values were produced by the same `+=`
  // sequence this shard replays locally, so copying them keeps every
  // subsequent capacity comparison bit-exact.
  const std::span<const double> loads = plan.loads();
  std::copy(loads.begin(), loads.end(), local_load_.begin());

  // Fold newly committed replica sites into the masks.  Replicas are never
  // removed by the streaming plane, so a per-dataset high-water mark makes
  // the sync O(new replicas) instead of O(datasets × K).
  for (const Dataset& ds : inst_->datasets()) {
    const std::vector<SiteId>& sites = plan.replica_sites(ds.id);
    for (std::size_t i = mask_synced_[ds.id]; i < sites.size(); ++i) {
      replica_mask_[static_cast<std::size_t>(ds.id) * num_sites_ + sites[i]] =
          1;
    }
    mask_synced_[ds.id] = static_cast<std::uint32_t>(sites.size());
    replica_seen_[ds.id] = static_cast<std::uint32_t>(sites.size());
  }
}

bool ShardEngine::admit(const Query& q, AdmissionIntent& out) {
  const DualState::Savepoint sp = duals_.savepoint();
  load_journal_.clear();
  query_pending_.clear();
  out.query = q.id;
  out.placements.clear();

  bool ok = true;
  for (std::size_t di = 0; di < q.demands.size(); ++di) {
    const DatasetDemand& dd = q.demands[di];
    const double need =
        inst_->dataset(dd.dataset).volume * q.rate;  // == resource_demand

    // This demand's candidate row, restricted to the shard's scan set:
    // ascending site id, the same sites and η bases as the batch
    // CandidateIndex row.
    cand_site_.clear();
    cand_dod_.clear();
    rows_->row(
        q, di, map_->scan_sites(shard_),
        [&](SiteId s) { return in_scan_[s] != 0; },
        [&](SiteId s) { return inst_->path_delay(s, q.home); }, scratch_,
        [&](SiteId s, double delay) {
          cand_site_.push_back(s);
          cand_dod_.push_back(delay / q.deadline);
        });

    const bool budget_left = replica_seen_[dd.dataset] < inst_->max_replicas();
    const PricingState state{duals_.theta_data(), avail_.inv(), avail_.avail(),
                             local_load_, mask_row(dd.dataset), budget_left};
    const PricedChoice ch = admit_demand(*inst_, q, di, {cand_site_, cand_dod_},
                                         state, need, duals_, nullptr);
    if (ch.candidate == PricedChoice::kNoCandidate) {
      ok = false;
      break;
    }

    // The step raised the duals; place the choice in the shard's state.
    if (ch.needs_replica) {
      replica_mask_[static_cast<std::size_t>(dd.dataset) * num_sites_ +
                    ch.site] = 1;
      ++replica_seen_[dd.dataset];
      query_pending_.push_back({dd.dataset, ch.site, true});
    }
    out.placements.push_back({dd.dataset, ch.site, ch.needs_replica});
    load_journal_.push_back({ch.site, local_load_[ch.site]});
    local_load_[ch.site] += need;
  }

  if (!ok) {
    duals_.rollback_to(sp);
    duals_.commit();
    // LIFO load restore to the exact journaled prior values.
    while (!load_journal_.empty()) {
      local_load_[load_journal_.back().site] = load_journal_.back().prev_load;
      load_journal_.pop_back();
    }
    for (const AdmissionIntent::Placement& p : query_pending_) {
      replica_mask_[static_cast<std::size_t>(p.dataset) * num_sites_ +
                    p.site] = 0;
      --replica_seen_[p.dataset];
    }
    out.placements.clear();
    return false;
  }
  duals_.commit();
  epoch_pending_.insert(epoch_pending_.end(), query_pending_.begin(),
                        query_pending_.end());
  return true;
}

}  // namespace edgerep
