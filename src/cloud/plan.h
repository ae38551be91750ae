// Solution representation shared by every algorithm: which sites hold a
// replica of each dataset (x_{nl}) and which site evaluates each
// (query, demand) pair (π_{ml}), plus a capacity ledger.
//
// `validate` independently re-checks every ILP constraint — capacity (2),
// assignment-needs-replica (3), deadline (4) and replica budget (5) — so
// tests can certify any algorithm's output without trusting its bookkeeping.
//
// Plans also support copy-free transactions via an append-only undo log:
// `savepoint()` marks a point, mutations made while any savepoint is live
// are journaled, and `rollback_to()` replays the journal backwards.  Undo
// entries store the *previous* ledger value rather than re-deriving it, so
// rollback restores loads bit-exactly (no `x += a; x -= a` drift), and
// replica-list positions are journaled so site orderings are restored
// exactly too — a rolled-back plan is indistinguishable from a copy that
// was thrown away.
//
// Each replica slot also counts the assignments evaluating at it: `assign`
// raises the count, `unassign` lowers it and rollback replays both, so
// `remove_replica`'s in-use check is O(K) with no scan of the queries.
//
// Assignments live in one flat array over the instance's demand slots
// (query m's demands, in demand order, at [offset m, offset m+1)), so a
// plan makes one allocation however many queries it holds, and a query's
// assignments share a cache line or two.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cloud/delay.h"
#include "cloud/instance.h"
#include "util/prefetch.h"

namespace edgerep {

/// Slack for floating-point capacity comparisons.  Shared with the pricing
/// kernel so its feasibility mask reproduces `ReplicaPlan::fits` bit-exactly.
inline constexpr double kCapacityEps = 1e-9;

class ReplicaPlan {
 public:
  /// The instance must already be finalized and must outlive the plan.
  explicit ReplicaPlan(const Instance& inst);

  /// --- replicas (x_{nl}) ----------------------------------------------
  /// Place a replica of dataset n at site s.  Idempotent; throws when the
  /// replica budget K would be exceeded.
  void place_replica(DatasetId n, SiteId s);
  /// Remove an *unused* replica (frees budget for re-placement, e.g. during
  /// local search).  Throws if any assignment still evaluates n at s.
  void remove_replica(DatasetId n, SiteId s);
  [[nodiscard]] bool has_replica(DatasetId n, SiteId s) const;
  /// Assignments evaluating dataset n at site s (0 when s holds no
  /// replica of n).  O(K).
  [[nodiscard]] std::size_t replica_users(DatasetId n, SiteId s) const;
  [[nodiscard]] std::size_t replica_count(DatasetId n) const;
  [[nodiscard]] const std::vector<SiteId>& replica_sites(DatasetId n) const;

  /// --- assignments (π_{ml}) -------------------------------------------
  /// Assign query m's demand on dataset n to site s.  Requires a replica at
  /// s and enough residual capacity; debits the ledger.  Throws on violation
  /// (algorithms are expected to check feasibility first).
  void assign(QueryId m, DatasetId n, SiteId s);
  /// Undo an assignment, crediting the ledger.  Throws when not assigned.
  void unassign(QueryId m, DatasetId n);
  /// Site evaluating (m, n), if assigned.
  [[nodiscard]] std::optional<SiteId> assignment(QueryId m, DatasetId n) const;
  /// Number of assigned demands of query m.
  [[nodiscard]] std::size_t assigned_demands(QueryId m) const;
  /// True when every demand of m is assigned (the query is fully admitted).
  [[nodiscard]] bool admitted(QueryId m) const;

  /// --- ledger ----------------------------------------------------------
  /// Resource already committed at site s by this plan.
  [[nodiscard]] double load(SiteId s) const;
  /// A(v_l) minus committed load.
  [[nodiscard]] double residual(SiteId s) const;
  /// Can `amount` more resource fit at s (with a small epsilon slack)?
  [[nodiscard]] bool fits(SiteId s, double amount) const;
  /// The whole committed-load ledger, indexed by site.  Read-only view for
  /// the pricing kernel's feasibility gathers and the shard engines'
  /// epoch-start snapshots.
  [[nodiscard]] std::span<const double> loads() const noexcept {
    return load_;
  }

  /// --- transactions -----------------------------------------------------
  /// Opaque marker into the undo log.  Savepoints nest: roll back to an
  /// inner one first, then to an outer one.
  using Savepoint = std::size_t;
  /// Start (or continue) journaling mutations; returns the current log mark.
  Savepoint savepoint();
  /// Undo every mutation made after `sp`, restoring replica lists (including
  /// element order), assignments, and the ledger bit-exactly.  Throws when
  /// `sp` is ahead of the log (e.g. already committed past it).
  void rollback_to(Savepoint sp);
  /// Accept all journaled mutations and stop journaling.  Invalidates every
  /// outstanding savepoint; call once the transaction scope is decided.
  void commit() noexcept;
  /// Journaled-but-uncommitted mutation count (0 when not in a transaction).
  [[nodiscard]] std::size_t undo_log_size() const noexcept {
    return undo_log_.size();
  }

  [[nodiscard]] const Instance& instance() const noexcept { return *inst_; }
  [[nodiscard]] std::size_t total_replicas() const noexcept;

  /// Prefetch hints for a loop about to admit query m: first the line
  /// holding its slot offset, then (once that has arrived) its assignment
  /// slots.  Both read only what the earlier hint fetched; m must name a
  /// query of the instance.
  void prefetch_offset(QueryId m) const noexcept {
    prefetch(&demand_begin_[m]);
  }
  void prefetch_assignments(QueryId m) const noexcept {
    const std::size_t slot = demand_begin_[m];
    if (slot < demand_site_.size()) prefetch(&demand_site_[slot]);
  }

 private:
  struct UndoEntry {
    enum class Op : std::uint8_t {
      kPlaceReplica,   ///< undo: pop the site appended to replicas_[dataset]
      kRemoveReplica,  ///< undo: re-insert site at `index` in replicas_[dataset]
      kAssign,         ///< undo: clear demand slot, restore prev_load, -1 user
      kUnassign,       ///< undo: re-set demand slot, restore prev_load, +1 user
    };
    Op op;
    DatasetId dataset = 0;
    SiteId site = kInvalidSite;
    QueryId query = 0;
    std::uint32_t index = 0;  ///< demand index (assign) or replica slot (remove)
    double prev_load = 0.0;   ///< load_[site] before the mutation
  };

  /// Query m's assignment slots, in demand order.  Throws
  /// std::out_of_range for m past the last query.
  [[nodiscard]] std::span<const SiteId> demand_sites(QueryId m) const;

  const Instance* inst_;
  std::vector<std::vector<SiteId>> replicas_;          // per dataset
  std::vector<std::vector<std::uint32_t>> users_;      // per replica slot
  // Per query its first demand slot, then the slot count (n + 1 entries);
  // per demand slot its site, kInvalidSite while unassigned.
  std::vector<std::size_t> demand_begin_;
  std::vector<SiteId> demand_site_;
  std::vector<double> load_;                           // per site
  std::vector<UndoEntry> undo_log_;
  bool journaling_ = false;
};

/// Aggregate quality metrics of a plan (the paper's two reported series).
struct PlanMetrics {
  /// Objective (1): Σ over admitted queries of their demanded volume (GB).
  double admitted_volume = 0.0;
  /// Volume over *assigned demands* only (partial credit; Appro-G's N').
  double assigned_volume = 0.0;
  std::size_t admitted_queries = 0;
  std::size_t total_queries = 0;
  /// System throughput: admitted / total (paper §4.2).
  double throughput = 0.0;
  std::size_t replicas_placed = 0;
  /// Fraction of total available computing resource committed.
  double utilization = 0.0;
};

PlanMetrics evaluate(const ReplicaPlan& plan);

/// Independent constraint re-check; `violations` lists each broken
/// constraint in human-readable form.
struct ValidationResult {
  bool ok = true;
  std::vector<std::string> violations;
};

ValidationResult validate(const ReplicaPlan& plan);

}  // namespace edgerep
