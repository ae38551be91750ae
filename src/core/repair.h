// Incremental primal-dual repair of a replication plan after failures.
//
// The paper's primal-dual machinery is built for dynamic updates: dual
// prices summarize the load state, so when a cloudlet crashes or a link
// goes down we do not have to re-run `run_appro` from scratch.  The repair
// engine instead
//
//   1. **evicts** exactly the (query, demand) assignments invalidated by the
//      faults — evaluation site down, effective delay past the deadline,
//      home site down, or capacity overflow after degradation — plus the
//      replicas stored on crashed sites (data is lost, freeing budget K),
//   2. **re-prices** the duals: θ_l is reset to `load_l / effective A(v_l)`
//      at every touched site (the invariant uniform raising maintains), and
//      evicted queries' y_m return to 0, and
//   3. **re-admits** the displaced queries through the admission loop
//      (`admit_query`, core/admission.h) and the batch path's admission
//      step (`admit_demand`).  Its only variation is a fault filter over
//      the fault-free pruned CandidateIndex rows — a valid superset because
//      faults only remove edges and capacity, never add them — that keeps
//      the sites that are up and, under link faults, meet the deadline with
//      the effective delays (whose η bases they take).  The step prices
//      them against the effective availability A·scale and raises θ by
//      need / (A·scale).
//
// A full-recompute oracle lives behind `RepairOptions::full_recompute`: it
// rebuilds the plan from scratch under the same faulted constraints, so
// tests can assert the incremental result is admissible and within a
// bounded objective gap, and the `micro_repair` bench can report the
// latency advantage.  With no fault it re-admits every query exactly as
// appro_g does: same plan, same dual objective, same audited prices.
//
// Guarantees of the incremental path (tests/core/repair_test.cpp):
//   * the repaired plan passes `validate_under_faults` (capacity with
//     degraded availability, replica budget, effective deadlines, no use of
//     downed sites),
//   * untouched queries keep their exact assignments, so
//     admitted_volume(after) ≥ admitted_volume(before) − evicted volume,
//   * the whole procedure is a pure function of (plan, duals, faults,
//     options): repairing a copy of the same state twice yields
//     bit-identical plans.
#pragma once

#include <cstdint>

#include "cloud/plan.h"
#include "core/appro.h"
#include "core/candidate_index.h"
#include "core/primal_dual.h"
#include "sim/faults.h"

namespace edgerep {

struct RepairOptions {
  /// Pricing and ordering knobs for the re-admission pass (the same struct
  /// the admission engine takes; `order` ranks the displaced queries).
  ApproOptions admission;

  /// Full-recompute oracle: discard the incumbent plan and duals, then run
  /// fault-aware admission over *every* query from scratch.  Produces the
  /// reference result the incremental path is tested against; costs a full
  /// solve instead of work proportional to the blast radius.
  bool full_recompute = false;
};

struct RepairStats {
  std::size_t queries_evicted = 0;     ///< admitted before, displaced by faults
  std::size_t queries_readmitted = 0;  ///< displaced queries re-seated
  std::size_t queries_lost = 0;        ///< displaced and not re-seatable
  std::size_t replicas_lost = 0;       ///< replicas on crashed sites
  std::size_t replicas_placed = 0;     ///< fresh replicas from re-admission
  double evicted_volume = 0.0;         ///< Σ demanded volume of evicted queries
  double readmitted_volume = 0.0;      ///< Σ demanded volume re-seated
};

/// Re-admission + repair engine.  Owns the pruned candidate index (built
/// once per instance, shared across repairs — in a deployment it persists
/// from the original solve).
class RepairEngine {
 public:
  /// Throws std::invalid_argument (from the index build) when `inst` is
  /// not finalized.
  explicit RepairEngine(const Instance& inst);

  [[nodiscard]] const Instance& instance() const noexcept { return *inst_; }
  [[nodiscard]] const CandidateIndex& index() const noexcept { return index_; }

  /// Repair `plan`/`duals` in place against the effective network in
  /// `faults`.  Deterministic; transactional per re-admitted query (a query
  /// that cannot be fully re-seated leaves no partial state).  Throws
  /// std::invalid_argument, before changing anything, unless the plan, the
  /// duals and the fault state belong to this engine's instance.
  RepairStats repair(ReplicaPlan& plan, DualState& duals,
                     const FaultState& faults,
                     const RepairOptions& opts = {}) const;

 private:
  const Instance* inst_;
  CandidateIndex index_;
};

/// Independent constraint re-check under faults: everything `validate`
/// checks, with availability scaled by the fault state, effective
/// (downed-link) delays against deadlines, and no replica or assignment on
/// a downed site.
ValidationResult validate_under_faults(const ReplicaPlan& plan,
                                       const FaultState& faults);

}  // namespace edgerep
