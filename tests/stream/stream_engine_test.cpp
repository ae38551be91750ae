// The streaming plane's contracts: 1-shard runs reproduce the batch engine
// exactly (admitted volume and per-demand assignments), multi-shard runs
// stay admissible under independent validation, and a fixed (instance,
// stream, options) triple is deterministic regardless of threading.
#include "stream/stream_engine.h"

#include <gtest/gtest.h>

#include "core/appro.h"
#include "helpers/fixtures.h"
#include "helpers/golden.h"

namespace edgerep {
namespace {

using testing::medium_instance;
using testing::small_instance;

std::vector<Arrival> id_stream(const Instance& inst, std::uint64_t seed) {
  return generate_arrival_stream(inst, /*rate=*/200.0, seed,
                                 ArrivalOrder::kQueryId);
}

/// A 1-shard streaming run over a query-id-ordered stream must admit
/// exactly what the batch engine admits with Order::kInput — the exact
/// per-demand plan, pinned on small instances and on the tight-deadline
/// instance, whose candidate rows hold a few percent of its 1000 sites.
TEST(StreamEngine, OneShardReproducesBatchPlanExactly) {
  const auto expect_batch_plan = [](const Instance& inst,
                                    std::uint64_t seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ApproOptions batch_opts;
    batch_opts.order = ApproOptions::Order::kInput;
    const ApproResult batch = appro_g(inst, batch_opts);

    StreamOptions sopts;
    sopts.shards = 1;
    const StreamResult stream =
        run_stream(inst, id_stream(inst, seed), sopts);

    EXPECT_GT(stream.queries_admitted, 0u);
    EXPECT_EQ(stream.metrics.admitted_queries,
              batch.metrics.admitted_queries);
    EXPECT_EQ(stream.metrics.admitted_volume, batch.metrics.admitted_volume);
    EXPECT_EQ(stream.plan.total_replicas(), batch.plan.total_replicas());
    EXPECT_EQ(stream.conflicts, 0u) << "single shard can never conflict";
    std::size_t differences = 0;
    for (const Query& q : inst.queries()) {
      for (const DatasetDemand& dd : q.demands) {
        differences += stream.plan.assignment(q.id, dd.dataset) !=
                               batch.plan.assignment(q.id, dd.dataset)
                           ? 1
                           : 0;
      }
    }
    EXPECT_EQ(differences, 0u);
  };
  for (const std::uint64_t seed : {3ULL, 17ULL, 29ULL}) {
    expect_batch_plan(small_instance(seed, /*f_max=*/3), seed);
  }
  const Instance tight = testing::tight_deadline_instance();
  expect_batch_plan(tight, 7);
}

// Phase 1 looks up to 8 queries ahead in a shard's batch.  With one
// epoch holding every arrival, the batch is shorter than, as long as and
// just past that distance, and one shard still reproduces batch Appro-G;
// at eight shards most batches are shorter than it, and the plan stays
// admissible and independent of the thread count.
TEST(StreamEngine, BatchesAroundTheLookaheadDistance) {
  for (std::size_t queries = 1; queries <= 17; ++queries) {
    SCOPED_TRACE(std::to_string(queries) + " queries");
    const Instance inst = testing::tight_deadline_instance(queries, 200);
    ApproOptions batch_opts;
    batch_opts.order = ApproOptions::Order::kInput;
    const ApproResult batch = appro_g(inst, batch_opts);
    const std::vector<Arrival> arrivals = id_stream(inst, queries);
    StreamOptions one;
    one.shards = 1;
    one.epoch_length = 1e9;  // every arrival in the first epoch
    const StreamResult stream = run_stream(inst, arrivals, one);
    EXPECT_EQ(stream.epochs, 1u);
    EXPECT_EQ(testing::plan_fp(stream.plan), testing::plan_fp(batch.plan));

    StreamOptions eight = one;
    eight.shards = 8;
    const StreamResult parallel = run_stream(inst, arrivals, eight);
    eight.parallel = false;
    const StreamResult serial = run_stream(inst, arrivals, eight);
    EXPECT_TRUE(validate(parallel.plan).ok);
    EXPECT_EQ(testing::plan_fp(parallel.plan), testing::plan_fp(serial.plan));
  }
}

TEST(StreamEngine, OneShardMatchesBatchVolumeOnMediumInstances) {
  for (const std::uint64_t seed : {5ULL, 41ULL}) {
    const Instance inst = medium_instance(seed);
    ApproOptions batch_opts;
    batch_opts.order = ApproOptions::Order::kInput;
    const ApproResult batch = appro_g(inst, batch_opts);
    StreamOptions sopts;
    sopts.shards = 1;
    const StreamResult stream =
        run_stream(inst, id_stream(inst, seed), sopts);
    EXPECT_EQ(stream.metrics.admitted_volume, batch.metrics.admitted_volume);
    EXPECT_EQ(stream.metrics.admitted_queries,
              batch.metrics.admitted_queries);
  }
}

TEST(StreamEngine, MultiShardPlansStayAdmissible) {
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const Instance inst = medium_instance(13);
    StreamOptions opts;
    opts.shards = shards;
    const StreamResult res = run_stream(inst, id_stream(inst, 13), opts);
    const ValidationResult vr = validate(res.plan);
    EXPECT_TRUE(vr.ok) << shards << " shards: "
                       << (vr.violations.empty() ? "" : vr.violations[0]);
    // Every query reaches a terminal state exactly once.
    EXPECT_EQ(res.queries_admitted + res.queries_rejected,
              inst.queries().size());
    EXPECT_EQ(res.shard_stats.size(), shards);
  }
}

TEST(StreamEngine, BoundaryPolicySharesDataCenters) {
  const Instance inst = medium_instance(13);
  StreamOptions opts;
  opts.shards = 4;
  opts.boundary = BoundaryPolicy::kDataCenters;
  const StreamResult res = run_stream(inst, id_stream(inst, 13), opts);
  EXPECT_TRUE(validate(res.plan).ok);
  EXPECT_EQ(res.queries_admitted + res.queries_rejected,
            inst.queries().size());
}

/// Determinism: parallel phase 1 and serial phase 1 produce bit-identical
/// plans — the epoch protocol's result cannot depend on interleaving.
TEST(StreamEngine, ParallelAndSerialPhase1AreBitIdentical) {
  const auto expect_identical = [](const Instance& inst,
                                   const std::vector<Arrival>& stream,
                                   std::size_t shards) {
    StreamOptions par;
    par.shards = shards;
    par.parallel = true;
    StreamOptions ser = par;
    ser.parallel = false;
    const StreamResult a = run_stream(inst, stream, par);
    const StreamResult b = run_stream(inst, stream, ser);
    EXPECT_EQ(a.metrics.admitted_volume, b.metrics.admitted_volume);
    EXPECT_EQ(a.conflicts, b.conflicts);
    EXPECT_EQ(a.requeues, b.requeues);
    EXPECT_EQ(a.epochs, b.epochs);
    std::size_t differences = 0;
    for (const Query& q : inst.queries()) {
      for (const DatasetDemand& dd : q.demands) {
        differences += a.plan.assignment(q.id, dd.dataset) !=
                               b.plan.assignment(q.id, dd.dataset)
                           ? 1
                           : 0;
      }
    }
    EXPECT_EQ(differences, 0u);
    return a;
  };
  const Instance inst = medium_instance(31);
  expect_identical(inst, id_stream(inst, 31), 4);

  // Short candidate rows, and shards that conflict.
  const Instance tight = testing::tight_deadline_instance();
  const StreamResult r = expect_identical(
      tight, generate_arrival_stream(tight, 20'000.0, 7), 8);
  EXPECT_GT(r.conflicts, 0u);
}

/// The 4-shard plan, pinned to what the kernel and the retired scalar
/// pricing mode of the shards both produced.
TEST(StreamEngine, ScalarPricingMatchesVectorizedEndToEnd) {
  const Instance inst = medium_instance(37);
  StreamOptions opts;
  opts.shards = 4;
  const StreamResult r = run_stream(inst, id_stream(inst, 37), opts);
  testing::expect_golden("plans/oracle/pricing_stream_s4",
                         testing::runs_fp({testing::plan_fp(r.plan)}));
}

TEST(StreamEngine, RequeueAccountingIsConsistent) {
  const Instance inst = medium_instance(43);
  StreamOptions opts;
  opts.shards = 8;
  opts.max_requeues = 3;
  const StreamResult res = run_stream(inst, id_stream(inst, 43), opts);
  // A conflict either re-queues the query or rejects it for good.
  EXPECT_GE(res.conflicts, res.requeues);
  EXPECT_EQ(res.ledger_reserves >= res.ledger_releases, true);
  EXPECT_EQ(res.queries_admitted + res.queries_rejected,
            inst.queries().size());
}

TEST(StreamEngine, EmptyStreamYieldsEmptyPlan) {
  const Instance inst = medium_instance(3);
  const StreamResult res = run_stream(inst, {}, {});
  EXPECT_EQ(res.epochs, 0u);
  EXPECT_EQ(res.queries_admitted, 0u);
  EXPECT_EQ(res.metrics.admitted_volume, 0.0);
}

TEST(StreamEngine, SparseArrivalsSkipEmptyEpochsInConstantTime) {
  // Arrivals 1000 s apart with 50 ms epochs: the run must jump between
  // occupied windows instead of iterating 20k empty ones per gap.
  const Instance inst = testing::small_instance(11);
  std::vector<Arrival> stream;
  for (QueryId m = 0; m < inst.queries().size(); ++m) {
    stream.push_back({1000.0 * static_cast<double>(m + 1), m});
  }
  const StreamResult res = run_stream(inst, stream, {});
  EXPECT_EQ(res.queries_admitted + res.queries_rejected,
            inst.queries().size());
  EXPECT_LE(res.epochs, inst.queries().size());
}

TEST(StreamEngine, RejectsBadOptions) {
  const Instance inst = testing::small_instance(11);
  StreamOptions opts;
  opts.epoch_length = 0.0;
  EXPECT_THROW(run_stream(inst, {}, opts), std::invalid_argument);
  Instance raw;
  EXPECT_THROW(run_stream(raw, {}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace edgerep
