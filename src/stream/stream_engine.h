// Streaming admission plane: continuous query arrivals batched into
// micro-epochs, admitted in parallel by region-sharded engines, reconciled
// serially against the global plan.
//
// Epoch protocol:
//  1. Collect the epoch's batch: conflict losers re-queued from the
//     previous epoch first (deterministic order), then the arrivals whose
//     timestamps fall inside the epoch window.  Route each query to the
//     shard owning its home site.
//  2. Phase 1 (parallel): every shard admits its sub-batch against the
//     frozen plan snapshot using the vectorized pricing kernel, emitting
//     AdmissionIntents.  Shards share no mutable state, so the phase's
//     result is independent of thread interleaving.
//  3. Phase 2 (serial): replay intents in (shard id, intent order) —
//     reserve each demand's capacity against the plan's loads, re-derive
//     replica placements against the live plan, then commit the intent to
//     the plan or release its reservations and re-queue the loser (bounded
//     by max_requeues).
//
// Determinism contract: a fixed (instance, arrival stream, StreamOptions)
// triple yields a bit-identical plan regardless of thread count or
// scheduling, because phase 1 is read-frozen and phase 2 replays in a fixed
// order.  With shards == 1 and a kQueryId-ordered stream the result is
// exactly the batch run of appro with Order::kInput (tests pin this).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cloud/instance.h"
#include "cloud/plan.h"
#include "stream/shard_engine.h"
#include "workload/arrival_gen.h"

namespace edgerep {

/// Knobs of the streaming admission plane.
struct StreamOptions {
  std::size_t shards = 1;
  /// Micro-epoch length in seconds of arrival time.
  double epoch_length = 0.05;
  /// How many times a reconcile-conflict loser is re-queued before it is
  /// rejected for good.
  std::size_t max_requeues = 2;
  BoundaryPolicy boundary = BoundaryPolicy::kNone;
  /// Run phase 1 of each epoch on the global thread pool.
  bool parallel = true;
};

/// Per-shard accounting of one streaming run.
struct ShardStats {
  std::size_t routed = 0;     ///< queries routed to this shard (incl. retries)
  std::size_t admitted = 0;   ///< intents committed by the reconciler
  std::size_t infeasible = 0; ///< phase-1 rejections (no feasible site)
  std::size_t conflicts = 0;  ///< intents refused by the reconciler
};

struct StreamResult {
  ReplicaPlan plan;
  PlanMetrics metrics;
  std::size_t epochs = 0;
  std::size_t queries_admitted = 0;
  std::size_t queries_rejected = 0;
  std::size_t requeues = 0;         ///< conflict losers sent to a later epoch
  std::size_t conflicts = 0;        ///< reconcile refusals (≥ requeues)
  std::size_t ledger_reserves = 0;  ///< placements whose capacity fit
  std::size_t ledger_releases = 0;  ///< of those, released by a conflict
  std::vector<ShardStats> shard_stats;
};

/// Run the streaming admission plane over a pre-materialized arrival stream
/// (one arrival per query, nondecreasing times — see generate_arrival_stream).
StreamResult run_stream(const Instance& inst, std::span<const Arrival> stream,
                        const StreamOptions& opts = {});

}  // namespace edgerep
