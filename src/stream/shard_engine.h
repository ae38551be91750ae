// Per-shard admission engine for the streaming plane (phase 1 of an epoch).
//
// Each shard owns a DualState and admits its queries only against its
// ShardMap scan set (owned ∪ boundary sites) through the batch path's
// admission step (`admit_demand`, core/admission.h): the step prices the
// row against the shard's local loads and replica bytes and raises the
// shard's duals, and the shard applies the choice to its loads, masks and
// rollback journal.  The full CandidateIndex stores every
// row, quadratic in (queries × sites) where deadlines are loose — hopeless
// at 1M queries × 10k sites — so the engine builds each demand's candidate
// row on the fly into reusable SoA scratch buffers.  The row comes from
// the RowSource that run_stream fills once before phase 1 and every shard
// reads: a demand that walks takes the sites of its home's list inside its
// reach that lie in the scan set, and a demand that scans tests every
// scan-set site.  Where the reach prunes, a query's work is its walk at any
// shard count; where it does not (loose deadlines), it is O(|scan set|),
// and only there do S shards cut the admission cost by ~S on one core.
// run_stream feeds a shard its batch with a lookahead: a few queries ahead
// it asks for the query record, the source's slot offset and the shard's
// duals, and one ahead for the walk lengths and the head of the home's
// list (RowSource's prefetch hints), so admit() mostly finds them cached.
//
// Epoch protocol (determinism contract):
//  * begin_epoch(plan) freezes the global state for this shard — it copies
//    the plan's load ledger (bit-exact: the values were produced by the same
//    `+=` sequence reconciliation replays) and folds newly committed replica
//    sites into persistent per-dataset byte-masks via a high-water mark.
//  * admit() runs whole queries atomically against that snapshot plus the
//    shard's own pending admissions, emitting an AdmissionIntent per
//    admitted query.  A query with any infeasible demand rolls back its
//    dual raises, load debits and pending replica bits exactly.
//  * Intents are applied (or refused) serially by the reconciler; dual
//    raises of conflict losers deliberately persist — the shard has seen
//    real contention for those sites, so pricing them higher is
//    conservative, never inadmissible.
// Phase 1 never touches shared mutable state, so shards run in parallel
// with no synchronization and the result is independent of interleaving.
#pragma once

#include <cstdint>
#include <vector>

#include "cloud/instance.h"
#include "cloud/plan.h"
#include "core/pricing.h"
#include "core/primal_dual.h"
#include "core/row_source.h"
#include "stream/shard_map.h"

namespace edgerep {

/// A shard's committed phase-1 decision for one query: where each demand
/// should run and whether the shard believes a fresh replica is required
/// (the reconciler re-derives the truth against the live plan).
struct AdmissionIntent {
  struct Placement {
    DatasetId dataset = 0;
    SiteId site = kInvalidSite;
    bool place_replica = false;
  };
  QueryId query = 0;
  std::vector<Placement> placements;  ///< in demand order
};

class ShardEngine {
 public:
  /// `rows` must outlive the engine; shards may share one source.
  ShardEngine(const Instance& inst, const ShardMap& map, std::uint32_t shard,
              const RowSource& rows);

  /// Freeze the global plan for this epoch: snapshot its load ledger, clear
  /// last epoch's pending replica bits, and fold newly committed replica
  /// sites into the masks.
  void begin_epoch(const ReplicaPlan& plan);

  /// Phase-1 admission of one query against the epoch snapshot plus this
  /// shard's pending state.  On success fills `out` and returns true; on
  /// failure restores all shard state exactly and returns false.
  bool admit(const Query& q, AdmissionIntent& out);

  [[nodiscard]] const DualState& duals() const noexcept { return duals_; }
  [[nodiscard]] std::uint32_t shard() const noexcept { return shard_; }

 private:
  [[nodiscard]] std::span<const std::uint8_t> mask_row(DatasetId d) const {
    return {replica_mask_.data() + static_cast<std::size_t>(d) * num_sites_,
            num_sites_};
  }

  const Instance* inst_;
  const ShardMap* map_;
  const RowSource* rows_;
  std::uint32_t shard_;
  std::size_t num_sites_;

  DualState duals_;
  SiteAvailability avail_;
  std::vector<double> local_load_;  ///< per site: epoch snapshot + pending
  std::vector<std::uint8_t> in_scan_;  ///< per site: 1 = in the scan set

  /// Per (dataset, site) byte-mask: frozen-plan replicas ∪ shard-pending
  /// placements.  Flat row-major [dataset][site].
  std::vector<std::uint8_t> replica_mask_;
  std::vector<std::uint32_t> mask_synced_;   ///< per dataset: plan sites folded
  std::vector<std::uint32_t> replica_seen_;  ///< per dataset: frozen + pending
  /// Pending bits set this epoch (cleared at the next begin_epoch).
  std::vector<AdmissionIntent::Placement> epoch_pending_;

  // Per-demand SoA scratch (reused across queries; sized to the scan set).
  RowSource::Scratch scratch_;
  std::vector<SiteId> cand_site_;
  std::vector<double> cand_dod_;
  // Per-query undo journal for atomic rollback.
  struct LoadUndo {
    SiteId site;
    double prev_load;
  };
  std::vector<LoadUndo> load_journal_;
  std::vector<AdmissionIntent::Placement> query_pending_;
};

}  // namespace edgerep
