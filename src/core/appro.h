// The paper's approximation algorithms.
//
// Appro-S (Algorithm 1): special case, each query demands exactly one
// dataset.  Queries are processed in a configurable order; for each, the
// algorithm prices every deadline- and capacity-feasible site with the
// current dual variables (capacity price θ_l, deadline tightness, and a
// replica-creation price when no replica is present yet), picks the
// cheapest site — the site where dual constraint (9) becomes tight first
// under uniform raising — places a replica there if needed (raising μ), and
// admits the query.
//
// Appro-G (Algorithm 2): general case; invokes the Appro-S admission step
// once per (query, dataset) demand, exactly as the paper's loop does.
//
// Both return the plan together with a repaired feasible dual solution so
// callers can certify weak duality.
#pragma once

#include <cstdint>

#include "cloud/plan.h"
#include "core/primal_dual.h"

namespace edgerep {

struct ApproOptions {
  /// Query processing order ("uniform raising" reaches big queries first
  /// under volume-descending order; ablation bench sweeps these).
  enum class Order : std::uint8_t {
    kInput,         ///< as given in the instance
    kVolumeDesc,    ///< largest demanded volume first (default)
    kVolumeAsc,
    kDeadlineAsc,   ///< tightest QoS first
    kRandom,        ///< shuffled with `seed`
  };
  Order order = Order::kVolumeDesc;

  /// Default (false): existing replicas and fresh placements compete on
  /// price, with fresh ones paying a replica-creation surcharge — the joint
  /// replication/assignment view.  When true, an existing replica site is
  /// always preferred if any is feasible (maximally conserves the budget K
  /// but can trap demands on overloaded sites); this is the ABL-REUSE
  /// ablation.
  bool strict_reuse = false;

  /// When true (default), a multi-dataset query's demands are committed
  /// transactionally: if any demand has no feasible site, the query's
  /// earlier demands are rolled back, so capacity and replica budget are
  /// never stranded on queries that can't be admitted — objective (1) only
  /// credits fully admitted queries.  The paper's Algorithm 2 literally
  /// invokes the Appro-S step once per demand with no rollback; set false
  /// for that behaviour.  The transaction runs in place under plan and
  /// dual savepoints (admit_query, core/admission.h).  The ABL-ORDER/
  /// ABL-REUSE benches run the default only; tests/core/appro_test.cpp and
  /// the plans/appro_*/non_atomic goldens cover the per-demand mode.
  bool atomic_queries = true;

  std::uint64_t seed = 0x5eed;  ///< used only by Order::kRandom
};

struct ApproResult {
  ReplicaPlan plan;
  DualState duals;          ///< repaired: feasible, objective() bounds OPT
  double dual_objective = 0.0;
  PlanMetrics metrics;
  std::size_t demands_assigned = 0;
  std::size_t demands_rejected = 0;
};

/// Appro-S.  Throws std::invalid_argument if any query demands more than one
/// dataset (use appro_g for the general case).
ApproResult appro_s(const Instance& inst, const ApproOptions& opts = {});

/// Appro-G: general case, any number of datasets per query.
ApproResult appro_g(const Instance& inst, const ApproOptions& opts = {});

}  // namespace edgerep
