// Greedy-S / Greedy-G baseline (paper §4.1, first benchmark):
//
//   "It selects a data center or cloudlet with the largest available
//    computing resource to place a replica of a dataset.  If the delay
//    requirement cannot be satisfied, it then selects a data center or
//    cloudlet with the second largest available computing resource to place
//    the replica.  This procedure continues until the query is admitted or
//    there are already K replicas of the dataset in the system."
//
// Faithfully to that description, the replica is placed at the
// largest-capacity site *before* the delay requirement is checked, so a
// failed attempt permanently consumes replica budget — the main reason the
// paper observes Greedy trailing Appro by several times.
#pragma once

#include "baselines/baseline.h"
#include "cloud/instance.h"

namespace edgerep {

struct GreedyOptions {
  /// Default (false) reproduces the paper's per-demand procedure: a query
  /// can end up partially assigned, stranding capacity on demands that
  /// never complete.  When true, each query's demands run under a plan
  /// savepoint and roll back unless every demand lands (wasted replica
  /// placements from failed delay checks roll back too) — the admit_query
  /// transaction the Appro engines use (core/admission.h).
  bool atomic_queries = false;
};

/// Special case: every query must demand exactly one dataset (throws
/// std::invalid_argument otherwise).
BaselineResult greedy_s(const Instance& inst, const GreedyOptions& opts = {});

/// General case: the same per-demand procedure for multi-dataset queries.
BaselineResult greedy_g(const Instance& inst, const GreedyOptions& opts = {});

}  // namespace edgerep
